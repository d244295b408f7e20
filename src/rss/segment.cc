#include "rss/segment.h"

#include <cstring>

namespace systemr {

std::string EncodeTuple(RelId relid, const Row& row) {
  std::string out;
  out.resize(6);
  std::memcpy(out.data(), &relid, 4);
  uint16_t ncols = static_cast<uint16_t>(row.size());
  std::memcpy(out.data() + 4, &ncols, 2);
  for (const Value& v : row) v.Serialize(&out);
  return out;
}

bool DecodeTupleAt(std::string_view record, RelId* relid, size_t offset,
                   Row* row) {
  if (record.size() < 6) return false;
  std::memcpy(relid, record.data(), 4);
  uint16_t ncols;
  std::memcpy(&ncols, record.data() + 4, 2);
  if (row->size() < offset + ncols) row->resize(offset + ncols);
  size_t pos = 6;
  for (uint16_t i = 0; i < ncols; ++i) {
    if (!Value::Deserialize(record.data(), record.size(), &pos,
                            &(*row)[offset + i])) {
      return false;
    }
  }
  return true;
}

bool DecodeRelId(std::string_view record, RelId* relid) {
  if (record.size() < 4) return false;
  std::memcpy(relid, record.data(), 4);
  return true;
}

}  // namespace systemr
