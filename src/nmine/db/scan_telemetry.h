#ifndef NMINE_DB_SCAN_TELEMETRY_H_
#define NMINE_DB_SCAN_TELEMETRY_H_

#include <cstdint>

namespace nmine {
namespace db_telemetry {

/// Process-wide scan progress counters, fed into the global metrics
/// registry as "db.scans.started" and "db.sequences_scanned". Unlike the
/// per-database scan_count() accounting (which miners reset per run),
/// these only ever grow, so a progress heartbeat can sample them from
/// another thread while a long mining run is in flight.

/// Called by every SequenceDatabase implementation at the start of a full
/// pass (via CountScan()).
void RecordScanStarted();

/// Called per sequence delivered to a scan visitor by the leaf databases
/// (in-memory and disk; decorators do not double-count). One relaxed
/// atomic increment — cheap enough for the hot path.
void RecordSequenceVisited();

}  // namespace db_telemetry
}  // namespace nmine

#endif  // NMINE_DB_SCAN_TELEMETRY_H_
