// B+-tree index, as in the paper's RSS: "Indexes are implemented as B-trees,
// whose leaves are pages containing sets of (key, identifiers of tuples which
// contain that key)... Index leaf pages are chained together so that NEXTs
// need not reference any upper level pages of the index" (§3).
//
// Keys are memcomparable byte strings produced by Value::EncodeKey /
// EncodeCompositeKey. Internally each stored key is suffixed with the 8-byte
// packed TID, which (a) makes stored keys unique, so splits and routing never
// straddle duplicate runs, and (b) preserves user-key order because the value
// encoding is prefix-free.
//
// The tree is its pages: every search and write works on a node's page bytes,
// got through the metered BufferPool. A node's page:
//   [0]      u8   1 for a leaf, 0 for an internal node
//   [1,3)    u16  entry count n
//   [3,7)    u32  next leaf in the chain (kInvalidPage in internal nodes)
//   [7,11)   u32  leftmost child (internal nodes only)
//   then     u16  end[n]: where entry i ends, counted from the entry area
//   then     the entry area: entries in key order, each a stored key followed
//            by its payload (a leaf's 8-byte packed TID, an internal node's
//            u32 child for keys >= it)
// Entry i's key length is end[i] - end[i-1] minus the payload, so a node
// takes 7 bytes (11 internal) plus 2 + key + payload per entry: the byte
// count the split rule weighs.
//
// A node is checked in full (header flag, offsets in bounds and increasing,
// keys strictly ascending, child and next ids in range) each time the pool
// reads its page from the store, and every access bounds-checks the offsets
// and ids it uses, so a corrupt node surfaces as kDataLoss, never as an
// out-of-bounds read. Storage failures propagate as Status, and a write that
// fails changes nothing.
#ifndef SYSTEMR_RSS_BTREE_H_
#define SYSTEMR_RSS_BTREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rss/buffer_pool.h"
#include "rss/page.h"

namespace systemr {

using IndexId = uint32_t;

class BTree {
 public:
  BTree(BufferPool* pool, IndexId id, bool unique);
  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  IndexId id() const { return id_; }
  bool unique() const { return unique_; }

  /// Inserts (key, tid). For a unique index, returns AlreadyExists if a tuple
  /// with the same user key is already present.
  Status Insert(std::string_view user_key, Tid tid);

  /// Removes the entry (key, tid). Leaves are never merged (lazy deletion,
  /// as in the RSS; pages are reclaimed on index rebuild). Returns NotFound
  /// if no such entry exists.
  Status Delete(std::string_view user_key, Tid tid);

  /// NINDX: number of pages in the index (leaves + internal nodes).
  size_t num_pages() const { return num_pages_; }
  size_t num_leaf_pages() const { return num_leaf_pages_; }
  int height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }

  /// Root page id — exposed for integrity tests that corrupt stored nodes.
  PageId root() const { return root_; }

  /// Forward cursor over leaf entries in key order. A series of Nexts does a
  /// sequential read along the chained leaf pages (§3). Seek/Next return a
  /// non-OK Status on storage failure; the cursor is then invalid.
  class Cursor {
   public:
    /// Positions at the first entry whose user key is >= `start`; an empty
    /// `start` positions at the first entry of the index.
    Status Seek(std::string_view start);
    /// Positions at the first entry of the index.
    Status SeekToFirst() { return Seek(""); }

    bool Valid() const { return valid_; }
    Status Next();

    /// The user (search) key of the current entry, without the TID suffix:
    /// a view into the leaf's page, valid until the cursor moves.
    std::string_view user_key() const { return user_key_; }
    Tid tid() const { return tid_; }

   private:
    friend class BTree;
    explicit Cursor(const BTree* tree) : tree_(tree) {}
    Status LoadLeaf(PageId leaf);
    /// Moves to the entry at pos_, or along the leaf chain to the next
    /// entry; the cursor is valid only if one exists.
    Status Settle();

    const BTree* tree_;
    bool valid_ = false;
    PageId leaf_ = kInvalidPage;
    // The current leaf's page. The store owns every page for its lifetime,
    // so the pointer stays good when the pool evicts the page. No cursor is
    // ever live across an index write (DML collects its targets before
    // mutating), so none sees its page change under it.
    const Page* page_ = nullptr;
    size_t pos_ = 0;
    std::string_view user_key_;
    Tid tid_;
  };

  Cursor NewCursor() const { return Cursor(this); }

  /// True if the index contains an entry with this exact user key.
  StatusOr<bool> ContainsKey(std::string_view user_key) const;

 private:
  /// One level of a descent: the node's page and the slot the target routes
  /// to (the child taken in an internal node; in a leaf, the slot an insert
  /// of the target takes).
  struct PathStep {
    PageId pid;
    const Page* page;
    size_t slot;
  };

  /// Gets node `pid` through the pool (one metered fetch), which checks the
  /// whole node when it reads the page from the store. The id and the
  /// header are checked on every call: kDataLoss for a link past the store
  /// or a header whose offsets leave the page.
  StatusOr<const Page*> FetchNode(PageId pid) const;

  /// Descends to the leaf that may contain the first stored key >= target,
  /// visiting at most height + 2 nodes (kDataLoss beyond: a cyclic child
  /// link). With `path`, records every node visited, root first.
  StatusOr<PageId> FindLeaf(std::string_view target,
                            std::vector<PathStep>* path = nullptr) const;

  BufferPool* pool_;
  IndexId id_;
  bool unique_;
  PageId root_;
  size_t num_pages_ = 0;
  size_t num_leaf_pages_ = 0;
  int height_ = 1;
  uint64_t num_entries_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_BTREE_H_
