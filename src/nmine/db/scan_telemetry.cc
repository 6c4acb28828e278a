#include "nmine/db/scan_telemetry.h"

#include "nmine/obs/metrics.h"

namespace nmine {
namespace db_telemetry {
namespace {

/// Resolved once; the registry guarantees stable references.
obs::Counter& ScansCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("db.scans.started");
  return c;
}

obs::Counter& SequencesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("db.sequences_scanned");
  return c;
}

}  // namespace

void RecordScanStarted() { ScansCounter().Increment(); }

void RecordSequenceVisited() { SequencesCounter().Increment(); }

}  // namespace db_telemetry
}  // namespace nmine
