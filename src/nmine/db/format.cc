#include "nmine/db/format.h"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace nmine {
namespace dbformat {

void PutVarint64(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint64(const char** pos, const char* end, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  const char* p = *pos;
  while (p < end && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(*p++);
    // The 10th byte (shift 63) may only contribute bit 63; anything larger
    // would silently drop high bits, so reject it as corrupt.
    if (shift == 63 && (byte & 0x7f) > 1) return false;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *pos = p;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or overlong
}

std::string EncodeDatabase(const std::vector<SequenceRecord>& records) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  PutVarint64(records.size(), &out);
  for (const SequenceRecord& r : records) {
    PutVarint64(static_cast<uint64_t>(r.id), &out);
    PutVarint64(r.symbols.size(), &out);
    for (SymbolId s : r.symbols) {
      PutVarint64(static_cast<uint64_t>(static_cast<uint32_t>(s)), &out);
    }
  }
  return out;
}

IoResult DecodeDatabase(const std::string& bytes,
                        std::vector<SequenceRecord>* records) {
  records->clear();
  if (bytes.size() < sizeof(kMagic) + 1) {
    return IoResult::Error("file too short for header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return IoResult::Error("bad magic: not an nmine sequence database");
  }
  uint8_t version = static_cast<uint8_t>(bytes[sizeof(kMagic)]);
  if (version != kVersion) {
    return IoResult::Error("unsupported format version " +
                           std::to_string(version));
  }
  const char* pos = bytes.data() + sizeof(kMagic) + 1;
  const char* end = bytes.data() + bytes.size();
  uint64_t count = 0;
  if (!GetVarint64(&pos, end, &count)) {
    return IoResult::Error("truncated sequence count");
  }
  // Every varint takes a byte: refuse counts the image cannot hold.
  if (count > static_cast<uint64_t>(end - pos)) {
    return IoResult::Error("sequence count exceeds the image");
  }
  records->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SequenceRecord r;
    uint64_t id = 0;
    uint64_t len = 0;
    if (!GetVarint64(&pos, end, &id) || !GetVarint64(&pos, end, &len)) {
      return IoResult::Error("truncated record header at sequence " +
                             std::to_string(i));
    }
    if (len > static_cast<uint64_t>(end - pos)) {
      return IoResult::Error("truncated symbols at sequence " +
                             std::to_string(i));
    }
    r.id = static_cast<SequenceId>(id);
    r.symbols.reserve(len);
    for (uint64_t j = 0; j < len; ++j) {
      uint64_t sym = 0;
      if (!GetVarint64(&pos, end, &sym)) {
        return IoResult::Error("truncated symbols at sequence " +
                               std::to_string(i));
      }
      if (sym > static_cast<uint64_t>(INT32_MAX)) {
        return IoResult::Error("symbol out of range at sequence " +
                               std::to_string(i));
      }
      r.symbols.push_back(static_cast<SymbolId>(sym));
    }
    records->push_back(std::move(r));
  }
  if (pos != end) {
    return IoResult::Error("trailing garbage after last record");
  }
  return IoResult::Ok();
}

IoResult WriteDatabaseFile(const std::string& path,
                           const std::vector<SequenceRecord>& records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return IoResult::Error("cannot open for writing: " + path);
  }
  std::string bytes = EncodeDatabase(records);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return IoResult::Error("write failed: " + path);
  }
  return IoResult::Ok();
}

IoResult ReadDatabaseFile(const std::string& path,
                          std::vector<SequenceRecord>* records) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IoResult::Error("cannot open for reading: " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return IoResult::Error("read failed: " + path);
  }
  return DecodeDatabase(bytes, records);
}

}  // namespace dbformat
}  // namespace nmine
