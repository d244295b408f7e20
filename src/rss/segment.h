// Segments: logical units of pages (§3). Segments may hold tuples of several
// relations (each record is tagged with its relation id), but no relation
// spans a segment.
#ifndef SYSTEMR_RSS_SEGMENT_H_
#define SYSTEMR_RSS_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "common/schema.h"
#include "rss/buffer_pool.h"
#include "rss/page.h"

namespace systemr {

using SegmentId = uint32_t;
using RelId = uint32_t;

class Segment {
 public:
  explicit Segment(SegmentId id) : id_(id) {}

  SegmentId id() const { return id_; }
  const std::vector<PageId>& pages() const { return pages_; }
  void AddPage(PageId p) { pages_.push_back(p); }

  /// Pages currently holding at least one record. Segment scans touch every
  /// non-empty page exactly once (§3).
  size_t num_pages() const { return pages_.size(); }

 private:
  SegmentId id_;
  std::vector<PageId> pages_;
};

/// Encodes a tuple record: [u32 relid][u16 ncols][values...]. Records are
/// self-describing so a segment scan can skip tuples of other relations.
std::string EncodeTuple(RelId relid, const Row& row);

/// Decodes a record produced by EncodeTuple into (*row)[offset, offset +
/// ncols): a shorter row grows, and the row's other columns keep their
/// values — so a scan can fill its table's slice of a wider row in place.
/// Returns false on corruption.
bool DecodeTupleAt(std::string_view record, RelId* relid, size_t offset,
                   Row* row);

/// Decodes a record into exactly its tuple (`*row` is replaced).
inline bool DecodeTuple(std::string_view record, RelId* relid, Row* row) {
  row->clear();
  return DecodeTupleAt(record, relid, 0, row);
}

/// Reads just the relation tag of a record.
bool DecodeRelId(std::string_view record, RelId* relid);

}  // namespace systemr

#endif  // SYSTEMR_RSS_SEGMENT_H_
