#include "rss/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace systemr {

namespace {

constexpr size_t kNodeHeader = 1 + 2 + 4;  // is_leaf, count, next.

// Allocated at its exact length (growing a string rounds its capacity up):
// an insert moves the key into a cached node, which keeps it.
std::string MakeStoredKey(const std::string& user_key, Tid tid) {
  std::string stored(user_key.size() + 8, '\0');
  std::memcpy(stored.data(), user_key.data(), user_key.size());
  uint64_t packed = tid.Pack();
  for (int i = 0; i < 8; ++i) {
    stored[user_key.size() + i] =
        static_cast<char>((packed >> (8 * (7 - i))) & 0xff);
  }
  return stored;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void WriteU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

Status NodeCorrupt(PageId pid, const char* what) {
  return Status::DataLoss("corrupt B-tree node " + std::to_string(pid) + ": " +
                          what);
}

// Inserts `x` at `idx`, growing `v` by exactly one element: the
// reallocation, if any, moves the elements and leaves no spare capacity.
template <typename T>
void InsertExact(std::vector<T>* v, size_t idx, T x) {
  v->reserve(v->size() + 1);
  v->insert(v->begin() + idx, std::move(x));
}

// Inserts `x` at `idx` and splits the result: `v` keeps its first `keep`
// elements and `right` (empty, sized exactly) receives the rest. Elements
// move; none is copied, and `v` keeps its capacity.
template <typename T>
void InsertAndSplit(std::vector<T>* v, size_t idx, T x, size_t keep,
                    std::vector<T>* right) {
  auto move = [](auto it) { return std::make_move_iterator(it); };
  right->reserve(v->size() + 1 - keep);
  if (idx >= keep) {
    right->insert(right->end(), move(v->begin() + keep),
                  move(v->begin() + idx));
    right->push_back(std::move(x));
    right->insert(right->end(), move(v->begin() + idx), move(v->end()));
    v->erase(v->begin() + keep, v->end());
  } else {
    right->insert(right->end(), move(v->begin() + keep - 1), move(v->end()));
    v->erase(v->begin() + keep - 1, v->end());
    v->insert(v->begin() + idx, std::move(x));
  }
}

}  // namespace

size_t BTree::Node::SerializedSize() const {
  size_t size = kNodeHeader;
  if (is_leaf) {
    for (size_t i = 0; i < keys.size(); ++i) size += 2 + keys[i].size() + 8;
  } else {
    size += 4;  // Leftmost child.
    for (size_t i = 0; i < keys.size(); ++i) size += 2 + keys[i].size() + 4;
  }
  return size;
}

void BTree::Node::InsertAt(size_t slot, std::string key, uint64_t payload) {
  InsertExact(&keys, slot, std::move(key));
  if (is_leaf) {
    InsertExact(&tids, slot, payload);
  } else {
    InsertExact(&children, slot + 1, static_cast<PageId>(payload));
  }
}

std::string BTree::Node::SplitInsert(size_t slot, std::string key,
                                     uint64_t payload, Node* right) {
  right->is_leaf = is_leaf;
  size_t mid = (keys.size() + 1) / 2;
  if (is_leaf) {
    InsertAndSplit(&keys, slot, std::move(key), mid, &right->keys);
    InsertAndSplit(&tids, slot, payload, mid, &right->tids);
    return right->keys.front();
  }
  // The middle key moves up; it routes but is not stored in either half.
  InsertAndSplit(&keys, slot, std::move(key), mid + 1, &right->keys);
  std::string separator = std::move(keys.back());
  keys.pop_back();
  InsertAndSplit(&children, slot + 1, static_cast<PageId>(payload), mid + 1,
                 &right->children);
  return separator;
}

BTree::BTree(BufferPool* pool, IndexId id, bool unique)
    : pool_(pool), id_(id), unique_(unique) {
  root_ = pool_->NewPage();
  num_pages_ = num_leaf_pages_ = 1;
  // The fresh root is resident (NewPage pins it), so this fetch cannot fail.
  StatusOr<Page*> page = pool_->FetchMut(root_);
  WriteNode(node_cache_[root_], *page);
}

StatusOr<BTree::Node*> BTree::GetNode(PageId pid) const {
  // The fetch is issued unconditionally so metering (buffer gets, simulated
  // page fetches, LRU state) is identical whether or not the decoded form is
  // cached; the cache only skips re-deserialization. Fetch failures (I/O
  // error, checksum mismatch) propagate even when a decode is cached — the
  // simulated disk read did fail.
  ASSIGN_OR_RETURN(const Page* page, pool_->Fetch(pid));
  auto [it, inserted] = node_cache_.try_emplace(pid);
  if (!inserted) return &it->second;

  Node* node = &it->second;
  const char* p = page->bytes.data();
  const size_t num_store_pages = pool_->store()->num_pages();
  // Structural validation: every field read below is first bounds-checked so
  // a corrupt page (delivered by an injected fault or a real bug) becomes
  // kDataLoss, never an out-of-bounds read. On failure the provisional cache
  // entry is dropped — a bad decode must not be served later.
  auto reject = [&](const char* what) -> Status {
    node_cache_.erase(it);
    return NodeCorrupt(pid, what);
  };
  uint8_t leaf_byte = static_cast<uint8_t>(p[0]);
  if (leaf_byte > 1) return reject("header flag not 0/1");
  node->is_leaf = leaf_byte != 0;
  uint16_t count;
  std::memcpy(&count, p + 1, 2);
  std::memcpy(&node->next, p + 3, 4);
  if (node->is_leaf && node->next != kInvalidPage &&
      node->next >= num_store_pages) {
    return reject("leaf chain points past the store");
  }
  size_t pos = kNodeHeader;
  if (!node->is_leaf) {
    if (pos + 4 > kPageSize) return reject("truncated leftmost child");
    PageId child;
    std::memcpy(&child, p + pos, 4);
    pos += 4;
    if (child >= num_store_pages) return reject("child id out of range");
    node->children.push_back(child);
  }
  node->keys.reserve(count);
  if (node->is_leaf) {
    node->tids.reserve(count);
  } else {
    node->children.reserve(count + 1);
  }
  for (uint16_t i = 0; i < count; ++i) {
    if (pos + 2 > kPageSize) return reject("entry overruns page");
    uint16_t klen;
    std::memcpy(&klen, p + pos, 2);
    pos += 2;
    size_t payload = node->is_leaf ? 8 : 4;
    if (pos + klen + payload > kPageSize) return reject("entry overruns page");
    node->keys.emplace_back(p + pos, klen);
    pos += klen;
    if (i > 0 && node->keys[i] <= node->keys[i - 1]) {
      return reject("keys not strictly ascending");
    }
    if (node->is_leaf) {
      node->tids.push_back(ReadU64(p + pos));
      pos += 8;
    } else {
      PageId child;
      std::memcpy(&child, p + pos, 4);
      pos += 4;
      if (child >= num_store_pages) return reject("child id out of range");
      node->children.push_back(child);
    }
  }
  return node;
}

void BTree::WriteNode(const Node& node, Page* page) {
  assert(node.SerializedSize() <= kPageSize);
  char* p = page->bytes.data();
  p[0] = node.is_leaf ? 1 : 0;
  uint16_t count = static_cast<uint16_t>(node.keys.size());
  std::memcpy(p + 1, &count, 2);
  std::memcpy(p + 3, &node.next, 4);
  size_t pos = kNodeHeader;
  if (!node.is_leaf) {
    std::memcpy(p + pos, &node.children[0], 4);
    pos += 4;
  }
  for (size_t i = 0; i < node.keys.size(); ++i) {
    uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
    std::memcpy(p + pos, &klen, 2);
    pos += 2;
    std::memcpy(p + pos, node.keys[i].data(), klen);
    pos += klen;
    if (node.is_leaf) {
      WriteU64(p + pos, node.tids[i]);
      pos += 8;
    } else {
      std::memcpy(p + pos, &node.children[i + 1], 4);
      pos += 4;
    }
  }
}

Status BTree::Insert(const std::string& user_key, Tid tid) {
  if (unique_) {
    ASSIGN_OR_RETURN(bool exists, ContainsKey(user_key));
    if (exists) return Status::AlreadyExists("duplicate key in unique index");
  }
  std::string stored = MakeStoredKey(user_key, tid);
  if (stored.size() + 32 > kPageSize / 4) {
    return Status::InvalidArgument("index key too large");
  }
  std::vector<PathStep> path;
  RETURN_IF_ERROR(FindLeaf(stored, &path).status());
  std::reverse(path.begin(), path.end());  // Leaf first.

  // Decide from byte sizes alone how many levels split, leaf first: a level
  // splits when its node plus the entry arriving from below overflows the
  // page, and only a split sends an entry (its separator) further up. If
  // every level splits, a new root grows above the old one.
  size_t splits = 0;
  size_t key_len = stored.size();
  for (const PathStep& step : path) {
    const Node& node = *step.node;
    size_t entry = 2 + key_len + (node.is_leaf ? 8 : 4);
    if (node.SerializedSize() + entry <= kPageSize) break;
    ++splits;
    // The separator is the key at the middle slot once the entry is in.
    size_t mid = (node.keys.size() + 1) / 2;
    if (mid != step.slot) {
      key_len = node.keys[mid < step.slot ? mid : mid - 1].size();
    }
  }
  const bool grow_root = splits == path.size();

  // Obtain every page the write touches before changing anything, in the
  // order the pool has always seen: for each splitting level its new right
  // sibling (NewPage), the node and the sibling (FetchMut); then the level
  // that absorbs the entry, or the new root. A failed FetchMut discards the
  // new pages and leaves the tree, its pages and NINDX as they were.
  std::vector<PageId> fresh;
  std::vector<Page*> pages;
  auto acquire = [&](PageId pid) -> Status {
    StatusOr<Page*> page = pool_->FetchMut(pid);
    if (!page.ok()) {
      for (PageId p : fresh) pool_->Discard(p);
      return page.status();
    }
    pages.push_back(*page);
    return Status::OK();
  };
  for (size_t i = 0; i < splits; ++i) {
    fresh.push_back(pool_->NewPage());
    RETURN_IF_ERROR(acquire(path[i].pid));
    RETURN_IF_ERROR(acquire(fresh.back()));
  }
  if (grow_root) {
    fresh.push_back(pool_->NewPage());
    RETURN_IF_ERROR(acquire(fresh.back()));
  } else {
    RETURN_IF_ERROR(acquire(path[splits].pid));
  }

  // Nothing below can fail: change the cached nodes in place, leaf first,
  // and write each into its page.
  std::string key = std::move(stored);
  uint64_t payload = tid.Pack();  // Then the new right sibling's page id.
  for (size_t i = 0; i < splits; ++i) {
    Node& node = *path[i].node;
    Node& right = node_cache_[fresh[i]];
    key = node.SplitInsert(path[i].slot, std::move(key), payload, &right);
    if (node.is_leaf) {
      right.next = node.next;
      node.next = fresh[i];
    }
    WriteNode(node, pages[2 * i]);
    WriteNode(right, pages[2 * i + 1]);
    payload = fresh[i];
  }
  if (grow_root) {
    Node& root = node_cache_[fresh.back()];
    root.is_leaf = false;
    root.keys.push_back(std::move(key));
    root.children = {root_, static_cast<PageId>(payload)};
    WriteNode(root, pages.back());
    root_ = fresh.back();
    ++height_;
  } else {
    path[splits].node->InsertAt(path[splits].slot, std::move(key), payload);
    WriteNode(*path[splits].node, pages.back());
  }
  num_pages_ += fresh.size();
  if (splits > 0) ++num_leaf_pages_;
  ++num_entries_;
  return Status::OK();
}

Status BTree::Delete(const std::string& user_key, Tid tid) {
  std::string stored = MakeStoredKey(user_key, tid);
  ASSIGN_OR_RETURN(PageId leaf, FindLeaf(stored));
  ASSIGN_OR_RETURN(Node * node, GetNode(leaf));
  auto it = std::lower_bound(node->keys.begin(), node->keys.end(), stored);
  if (it == node->keys.end() || *it != stored) {
    return Status::NotFound("index entry not found");
  }
  // The page first: a failed FetchMut leaves the node as it was.
  ASSIGN_OR_RETURN(Page * page, pool_->FetchMut(leaf));
  size_t idx = static_cast<size_t>(it - node->keys.begin());
  node->keys.erase(it);
  node->tids.erase(node->tids.begin() + idx);
  WriteNode(*node, page);
  --num_entries_;
  return Status::OK();
}

StatusOr<PageId> BTree::FindLeaf(const std::string& target,
                                 std::vector<PathStep>* path) const {
  PageId pid = root_;
  // Any well-formed descent terminates within the tree's height; bound the
  // walk so a corrupt-but-plausible child loop cannot spin forever.
  for (int depth = 0; depth <= height_ + 1; ++depth) {
    ASSIGN_OR_RETURN(Node * node, GetNode(pid));
    if (node->is_leaf && path == nullptr) return pid;
    // lower_bound routing: keys equal to a separator live in the right
    // subtree (separators are first-keys of right siblings), but a *seek*
    // target is a bare user key, always strictly shorter than any stored key
    // with that user prefix, so lower_bound routing finds the leftmost
    // candidate. For a stored key this is upper_bound: in a leaf, the slot
    // an insert takes.
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), target);
    size_t idx = static_cast<size_t>(it - node->keys.begin());
    if (it != node->keys.end() && *it == target) ++idx;
    if (path != nullptr) path->push_back(PathStep{pid, node, idx});
    if (node->is_leaf) return pid;
    pid = node->children[idx];
  }
  return Status::DataLoss("B-tree descent exceeded height " +
                          std::to_string(height_) + " (cyclic child links?)");
}

StatusOr<bool> BTree::ContainsKey(const std::string& user_key) const {
  Cursor c = NewCursor();
  RETURN_IF_ERROR(c.Seek(user_key));
  return c.Valid() && c.user_key() == user_key;
}

Status BTree::Cursor::LoadLeaf(PageId leaf) {
  leaf_ = leaf;
  ASSIGN_OR_RETURN(node_, tree_->GetNode(leaf));
  if (!node_->is_leaf) {
    return NodeCorrupt(leaf, "leaf chain reached an internal node");
  }
  return Status::OK();
}

void BTree::Cursor::LoadEntry() {
  const std::string& stored = node_->keys[pos_];
  user_key_.assign(stored, 0, stored.size() - 8);
  tid_ = Tid::Unpack(node_->tids[pos_]);
}

Status BTree::Cursor::Seek(const std::string& start) {
  valid_ = false;
  ASSIGN_OR_RETURN(PageId leaf, tree_->FindLeaf(start));
  RETURN_IF_ERROR(LoadLeaf(leaf));
  auto it = std::lower_bound(node_->keys.begin(), node_->keys.end(), start);
  pos_ = static_cast<size_t>(it - node_->keys.begin());
  // The first matching entry may be at the start of the next leaf.
  while (pos_ >= node_->keys.size()) {
    if (node_->next == kInvalidPage) {
      return Status::OK();  // Past the last entry; cursor stays invalid.
    }
    RETURN_IF_ERROR(LoadLeaf(node_->next));
    pos_ = 0;
  }
  valid_ = true;
  LoadEntry();
  return Status::OK();
}

Status BTree::Cursor::Next() {
  if (!valid_) return Status::OK();
  ++pos_;
  while (pos_ >= node_->keys.size()) {
    if (node_->next == kInvalidPage) {
      valid_ = false;
      return Status::OK();
    }
    Status st = LoadLeaf(node_->next);
    if (!st.ok()) {
      valid_ = false;
      return st;
    }
    pos_ = 0;
  }
  LoadEntry();
  return Status::OK();
}

}  // namespace systemr
