// B+-tree index, as in the paper's RSS: "Indexes are implemented as B-trees,
// whose leaves are pages containing sets of (key, identifiers of tuples which
// contain that key)... Index leaf pages are chained together so that NEXTs
// need not reference any upper level pages of the index" (§3).
//
// Keys are memcomparable byte strings produced by Value::EncodeKey /
// EncodeCompositeKey. Internally each stored key is suffixed with the 8-byte
// packed TID, which (a) makes stored keys unique, so splits and routing never
// straddle duplicate runs, and (b) preserves user-key order because the value
// encoding is prefix-free. All page accesses are metered via the BufferPool
// and every operation propagates storage failures as Status: an unreadable or
// structurally invalid node surfaces as kIoError/kDataLoss instead of
// undefined behaviour, and a write that fails changes nothing.
#ifndef SYSTEMR_RSS_BTREE_H_
#define SYSTEMR_RSS_BTREE_H_

#include <cstdint>
#include <map>
#include <string>
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
  Status Insert(const std::string& user_key, Tid tid);

  /// Removes the entry (key, tid). Leaves are never merged (lazy deletion,
  /// as in the RSS; pages are reclaimed on index rebuild). Returns NotFound
  /// if no such entry exists.
  Status Delete(const std::string& user_key, Tid tid);

  /// NINDX: number of pages in the index (leaves + internal nodes).
  size_t num_pages() const { return num_pages_; }
  size_t num_leaf_pages() const { return num_leaf_pages_; }
  int height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }

  /// Root page id — exposed for integrity tests that corrupt stored nodes.
  PageId root() const { return root_; }

  /// Forgets all decoded nodes, forcing re-decode (and thus re-validation)
  /// from page bytes on next access. Used after out-of-band page mutation
  /// (corruption tests, simulated restart).
  void DropNodeCaches() const { node_cache_.clear(); }

 private:
  struct Node;  // Declared below; cursors point into the decoded-node cache.

 public:
  /// Forward cursor over leaf entries in key order. A series of Nexts does a
  /// sequential read along the chained leaf pages (§3). Seek/Next return a
  /// non-OK Status on storage failure; the cursor is then invalid.
  class Cursor {
   public:
    /// Positions at the first entry whose user key is >= `start`; an empty
    /// `start` positions at the first entry of the index.
    Status Seek(const std::string& start);
    /// Positions at the first entry of the index.
    Status SeekToFirst() { return Seek(""); }

    bool Valid() const { return valid_; }
    Status Next();

    /// The user (search) key of the current entry, without the TID suffix.
    const std::string& user_key() const { return user_key_; }
    Tid tid() const { return tid_; }

   private:
    friend class BTree;
    explicit Cursor(const BTree* tree) : tree_(tree) {}
    void LoadEntry();
    Status LoadLeaf(PageId leaf);

    const BTree* tree_;
    bool valid_ = false;
    PageId leaf_ = kInvalidPage;
    // Current leaf in the tree's decoded-node cache. Stable: the cache is
    // node-based and never evicts, and writes change cached nodes in place
    // rather than replacing them. No cursor is ever live across an index
    // write (DML collects its targets before mutating), so none sees a node
    // change under it.
    const Node* node_ = nullptr;
    size_t pos_ = 0;
    std::string user_key_;
    Tid tid_;
  };

  Cursor NewCursor() const { return Cursor(this); }

  /// True if the index contains an entry with this exact user key.
  StatusOr<bool> ContainsKey(const std::string& user_key) const;

 private:
  friend class Cursor;

  struct Node {
    bool is_leaf = true;
    PageId next = kInvalidPage;             // Leaf chain.
    std::vector<std::string> keys;          // Stored keys (user||tid).
    std::vector<uint64_t> tids;             // Leaf payloads.
    std::vector<PageId> children;           // Internal: keys.size() + 1.

    size_t SerializedSize() const;
    /// Inserts `key` at `slot` with its payload: the TID in a leaf, the
    /// child to the key's right in an internal node. Each vector grows by
    /// exactly one element.
    void InsertAt(size_t slot, std::string key, uint64_t payload);
    /// The same insert, splitting the result in half: the upper half moves
    /// into the empty `right`, and the separator the parent must route by
    /// is returned (a leaf's is a copy of right's first key; an internal
    /// node's middle key moves up and stays in neither half).
    std::string SplitInsert(size_t slot, std::string key, uint64_t payload,
                            Node* right);
  };

  /// One level of a descent: the node and the slot the target routes to
  /// (the child taken in an internal node; in a leaf, the slot an insert of
  /// the target takes).
  struct PathStep {
    PageId pid;
    Node* node;
    size_t slot;
  };

  /// Returns the decoded node for `pid`, decoding and caching it on first
  /// access. Every call is metered as one buffer-pool fetch, exactly like the
  /// raw page read it replaces; the cache only elides re-deserialization.
  /// Entries are never evicted, so the returned pointer stays valid for the
  /// lifetime of the tree. Writers change the returned node in place, and
  /// only once FetchMut has succeeded for every page the write touches, so a
  /// failed write leaves the cache as it was. Decode validates the node
  /// structurally — header flag, entry bounds, strictly ascending stored
  /// keys, child/next page ids in range — and returns kDataLoss on any
  /// inconsistency without caching the bad decode.
  StatusOr<Node*> GetNode(PageId pid) const;
  /// Serializes `node` over the start of `page`, which the caller obtained
  /// with FetchMut before changing the node: a write's last step, and one
  /// that cannot fail.
  static void WriteNode(const Node& node, Page* page);

  /// Descends to the leaf that may contain the first stored key >= target,
  /// visiting at most height + 2 nodes (kDataLoss beyond: a cyclic child
  /// link). With `path`, records every node visited, root first.
  StatusOr<PageId> FindLeaf(const std::string& target,
                            std::vector<PathStep>* path = nullptr) const;

  BufferPool* pool_;
  IndexId id_;
  bool unique_;
  PageId root_;
  // Decoded-node cache, keyed by page id. std::map so node addresses are
  // stable across inserts (cursors and descent loops hold raw pointers).
  mutable std::map<PageId, Node> node_cache_;
  size_t num_pages_ = 0;
  size_t num_leaf_pages_ = 0;
  int height_ = 1;
  uint64_t num_entries_ = 0;
};

/// Strips the 8-byte TID suffix from a stored key.
inline std::string UserKeyOf(const std::string& stored) {
  return stored.substr(0, stored.size() - 8);
}

}  // namespace systemr

#endif  // SYSTEMR_RSS_BTREE_H_
