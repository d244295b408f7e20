#include "rss/btree.h"

#include <algorithm>
#include <cstring>

namespace systemr {

namespace {

constexpr size_t kNodeHeader = 1 + 2 + 4;  // is_leaf, count, next.
constexpr size_t kTidBytes = 8;            // The TID that ends a stored key.

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
void Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

// The user key followed by the big-endian packed TID.
std::string MakeStoredKey(std::string_view user_key, Tid tid) {
  std::string stored(user_key);
  uint64_t packed = tid.Pack();
  for (int i = 7; i >= 0; --i) {
    stored.push_back(static_cast<char>((packed >> (8 * i)) & 0xff));
  }
  return stored;
}

constexpr char kBadHeader[] = "header flag not 0/1, or count overruns page";

Status NodeCorrupt(PageId pid, const char* what) {
  return Status::DataLoss("corrupt B-tree node " + std::to_string(pid) + ": " +
                          what);
}

// A node read in place from its page (layout in btree.h). Callers check the
// header (HeaderOk) before anything else, and an entry (EntryOk) before
// reading its key, payload or the child it holds.
class NodeView {
 public:
  explicit NodeView(const Page* page) : p_(page->bytes.data()) {}

  bool leaf() const { return p_[0] != 0; }
  size_t count() const { return Load<uint16_t>(p_ + 1); }
  PageId next() const { return Load<PageId>(p_ + 3); }
  size_t payload() const { return leaf() ? 8 : 4; }
  // Where the end offsets start, and the entry area after them.
  size_t ends() const { return leaf() ? kNodeHeader : kNodeHeader + 4; }
  size_t area() const { return ends() + 2 * count(); }
  // Where entry i ends and starts, counted from the entry area.
  size_t end(size_t i) const { return Load<uint16_t>(p_ + ends() + 2 * i); }
  size_t begin(size_t i) const { return i == 0 ? 0 : end(i - 1); }
  size_t used() const { return count() == 0 ? 0 : end(count() - 1); }
  // The node's byte count, which the split rule weighs.
  size_t size() const { return area() + used(); }

  // The leaf flag is 0 or 1, and the end offsets fit in the page.
  bool HeaderOk() const {
    return static_cast<uint8_t>(p_[0]) <= 1 && area() <= kPageSize;
  }
  // Entry i lies in the page, after entry i-1, and holds a key of at least
  // the TID before its payload.
  bool EntryOk(size_t i) const {
    return begin(i) + kTidBytes + payload() <= end(i) &&
           area() + end(i) <= kPageSize;
  }
  // The bytes from entry i to the node's end, which an insert or erase in
  // place moves, lie in the page.
  bool TailOk(size_t i) const {
    return begin(i) <= used() && size() <= kPageSize;
  }
  // Entry i whole (stored key, then payload), its key, and a leaf's TID.
  std::string_view entry(size_t i) const {
    return {p_ + area() + begin(i), end(i) - begin(i)};
  }
  std::string_view key(size_t i) const {
    return entry(i).substr(0, end(i) - begin(i) - payload());
  }
  uint64_t tid(size_t i) const {
    return Load<uint64_t>(p_ + area() + end(i) - 8);
  }
  // Child i of an internal node: the leftmost, or entry i-1's payload.
  PageId child(size_t i) const {
    return Load<PageId>(i == 0 ? p_ + kNodeHeader
                               : p_ + area() + end(i - 1) - 4);
  }

 private:
  const char* p_;
};

// The check a node's page passes each time the pool reads it from the store.
Status CheckNode(const PageStore& store, PageId pid, const Page& page) {
  NodeView node(&page);
  if (!node.HeaderOk()) return NodeCorrupt(pid, kBadHeader);
  const size_t pages = store.num_pages();
  if (node.leaf() && node.next() != kInvalidPage && node.next() >= pages) {
    return NodeCorrupt(pid, "leaf chain points past the store");
  }
  if (!node.leaf() && node.child(0) >= pages) {
    return NodeCorrupt(pid, "child id out of range");
  }
  for (size_t i = 0; i < node.count(); ++i) {
    if (!node.EntryOk(i)) return NodeCorrupt(pid, "entry overruns page");
    if (i > 0 && node.key(i) <= node.key(i - 1)) {
      return NodeCorrupt(pid, "keys not strictly ascending");
    }
    if (!node.leaf() && node.child(i + 1) >= pages) {
      return NodeCorrupt(pid, "child id out of range");
    }
  }
  return Status::OK();
}

// The first slot whose key is >= target, or > target with `upper`. Reads
// only entries it checks; a returned slot s > 0 has had entry s-1 checked.
StatusOr<size_t> Search(const NodeView& node, PageId pid,
                        std::string_view target, bool upper) {
  size_t lo = 0;
  size_t hi = node.count();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (!node.EntryOk(mid)) return NodeCorrupt(pid, "entry overruns page");
    int c = node.key(mid).compare(target);
    if (c < 0 || (upper && c == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// A stored key followed by its payload: a TID in a leaf, a child id above.
std::string MakeEntry(std::string_view key, uint64_t payload, bool leaf) {
  std::string entry(key);
  entry.resize(key.size() + (leaf ? 8 : 4));
  if (leaf) {
    Store<uint64_t>(entry.data() + key.size(), payload);
  } else {
    Store<PageId>(entry.data() + key.size(), static_cast<PageId>(payload));
  }
  return entry;
}

// Writes a node holding `n` entries (each a stored key and its payload) over
// the start of `page`.
void WriteEntries(Page* page, bool leaf, PageId next, PageId leftmost,
                  const std::string_view* entries, size_t n) {
  char* p = page->bytes.data();
  p[0] = leaf ? 1 : 0;
  Store<uint16_t>(p + 1, static_cast<uint16_t>(n));
  Store<PageId>(p + 3, next);
  if (!leaf) Store<PageId>(p + kNodeHeader, leftmost);
  char* ends = p + NodeView(page).ends();
  char* area = ends + 2 * n;
  size_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(area + used, entries[i].data(), entries[i].size());
    used += entries[i].size();
    Store<uint16_t>(ends + 2 * i, static_cast<uint16_t>(used));
  }
}

// Inserts `entry` at `slot` of the node in `page`, which has room for it:
// the entries from `slot` on move up by the entry and its end offset, those
// before it by the offset alone.
void InsertEntry(Page* page, size_t slot, std::string_view entry) {
  NodeView node(page);
  const size_t count = node.count();
  const size_t begin = node.begin(slot);
  char* p = page->bytes.data();
  char* area = p + node.area();
  std::memmove(area + 2 + begin + entry.size(), area + begin,
               node.used() - begin);
  std::memmove(area + 2, area, begin);
  std::memcpy(area + 2 + begin, entry.data(), entry.size());
  char* ends = p + node.ends();
  for (size_t i = count; i > slot; --i) {
    Store<uint16_t>(ends + 2 * i,
                    static_cast<uint16_t>(node.end(i - 1) + entry.size()));
  }
  Store<uint16_t>(ends + 2 * slot,
                  static_cast<uint16_t>(begin + entry.size()));
  Store<uint16_t>(p + 1, static_cast<uint16_t>(count + 1));
}

// Removes entry `slot` of the node in `page`: the entries after it move down
// by the entry and its end offset, those before it by the offset alone.
void EraseEntry(Page* page, size_t slot) {
  NodeView node(page);
  const size_t count = node.count();
  const size_t begin = node.begin(slot);
  const size_t end = node.end(slot);
  const size_t used = node.used();
  char* p = page->bytes.data();
  char* ends = p + node.ends();
  char* area = p + node.area();
  for (size_t i = slot; i + 1 < count; ++i) {
    Store<uint16_t>(ends + 2 * i,
                    static_cast<uint16_t>(node.end(i + 1) - (end - begin)));
  }
  std::memmove(area - 2, area, begin);
  std::memmove(area - 2 + begin, area + end, used - end);
  Store<uint16_t>(p + 1, static_cast<uint16_t>(count - 1));
}

// Inserts `entry` at `slot` of the node in `page` and splits the result in
// half: the upper half moves to the empty page `right` (id `right_id`), and
// the separator the parent must route by is returned. A leaf's separator is
// a copy of right's first key; an internal node's middle key moves up and
// stays in neither half, and its child becomes right's leftmost.
std::string SplitEntry(Page* page, PageId right_id, Page* right, size_t slot,
                       std::string_view entry) {
  const Page old = *page;  // Both halves are written from this copy.
  NodeView node(&old);
  std::vector<std::string_view> entries;
  entries.reserve(node.count() + 1);
  for (size_t i = 0; i < node.count(); ++i) entries.push_back(node.entry(i));
  entries.insert(entries.begin() + slot, entry);
  const size_t mid = (node.count() + 1) / 2;
  const std::string_view up = entries[mid];
  std::string separator(up.substr(0, up.size() - node.payload()));
  if (node.leaf()) {
    WriteEntries(page, true, right_id, kInvalidPage, entries.data(), mid);
    WriteEntries(right, true, node.next(), kInvalidPage, entries.data() + mid,
                 entries.size() - mid);
  } else {
    WriteEntries(page, false, node.next(), node.child(0), entries.data(), mid);
    WriteEntries(right, false, kInvalidPage,
                 Load<PageId>(up.data() + separator.size()),
                 entries.data() + mid + 1, entries.size() - mid - 1);
  }
  return separator;
}

}  // namespace

BTree::BTree(BufferPool* pool, IndexId id, bool unique)
    : pool_(pool), id_(id), unique_(unique) {
  root_ = pool_->NewPage();
  num_pages_ = num_leaf_pages_ = 1;
  // The fresh root is resident (NewPage pins it), so this fetch cannot fail.
  StatusOr<Page*> page = pool_->FetchMut(root_);
  WriteEntries(*page, /*leaf=*/true, kInvalidPage, kInvalidPage, nullptr, 0);
}

StatusOr<const Page*> BTree::FetchNode(PageId pid) const {
  if (pid >= pool_->store()->num_pages()) {
    return Status::DataLoss("B-tree link to page " + std::to_string(pid) +
                            " points past the store");
  }
  ASSIGN_OR_RETURN(const Page* page, pool_->Fetch(pid, &CheckNode));
  if (!NodeView(page).HeaderOk()) return NodeCorrupt(pid, kBadHeader);
  return page;
}

Status BTree::Insert(std::string_view user_key, Tid tid) {
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
    NodeView node(step.page);
    if (node.size() + 2 + key_len + node.payload() <= kPageSize) {
      // The entry goes in place, moving the entries after its slot.
      if (!node.TailOk(step.slot)) {
        return NodeCorrupt(step.pid, "entry overruns page");
      }
      break;
    }
    // A split rewrites every entry, so the whole node must check out.
    RETURN_IF_ERROR(CheckNode(*pool_->store(), step.pid, *step.page));
    ++splits;
    // The separator is the key at the middle slot once the entry is in.
    size_t mid = (node.count() + 1) / 2;
    if (mid != step.slot) {
      key_len = node.key(mid < step.slot ? mid : mid - 1).size();
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

  // Nothing below can fail: write each level in its page, leaf first.
  std::string entry = MakeEntry(stored, tid.Pack(), /*leaf=*/true);
  for (size_t i = 0; i < splits; ++i) {
    std::string separator = SplitEntry(pages[2 * i], fresh[i],
                                       pages[2 * i + 1], path[i].slot, entry);
    entry = MakeEntry(separator, fresh[i], /*leaf=*/false);
  }
  if (grow_root) {
    std::string_view only = entry;
    WriteEntries(pages.back(), /*leaf=*/false, kInvalidPage, root_, &only, 1);
    root_ = fresh.back();
    ++height_;
  } else {
    InsertEntry(pages.back(), path[splits].slot, entry);
  }
  num_pages_ += fresh.size();
  if (splits > 0) ++num_leaf_pages_;
  ++num_entries_;
  return Status::OK();
}

Status BTree::Delete(std::string_view user_key, Tid tid) {
  std::string stored = MakeStoredKey(user_key, tid);
  ASSIGN_OR_RETURN(PageId leaf, FindLeaf(stored));
  ASSIGN_OR_RETURN(const Page* page, FetchNode(leaf));
  NodeView node(page);
  ASSIGN_OR_RETURN(size_t slot, Search(node, leaf, stored, /*upper=*/false));
  if (slot < node.count() && !(node.EntryOk(slot) && node.TailOk(slot + 1))) {
    return NodeCorrupt(leaf, "entry overruns page");
  }
  if (slot == node.count() || node.key(slot) != stored) {
    return Status::NotFound("index entry not found");
  }
  // The page first: a failed FetchMut leaves the node as it was.
  ASSIGN_OR_RETURN(Page * writable, pool_->FetchMut(leaf));
  EraseEntry(writable, slot);
  --num_entries_;
  return Status::OK();
}

StatusOr<PageId> BTree::FindLeaf(std::string_view target,
                                 std::vector<PathStep>* path) const {
  PageId pid = root_;
  // Any well-formed descent terminates within the tree's height; bound the
  // walk so a corrupt-but-plausible child loop cannot spin forever.
  for (int depth = 0; depth <= height_ + 1; ++depth) {
    ASSIGN_OR_RETURN(const Page* page, FetchNode(pid));
    NodeView node(page);
    if (node.leaf() && path == nullptr) return pid;
    // Route to the first key > target: separators are first keys of right
    // siblings, so a key equal to one lives in the right subtree. A seek
    // target is a bare user key, shorter than any stored key with that user
    // prefix, so this finds the leftmost candidate; for a stored key, in a
    // leaf, it is the slot an insert takes.
    ASSIGN_OR_RETURN(size_t slot, Search(node, pid, target, /*upper=*/true));
    if (path != nullptr) path->push_back(PathStep{pid, page, slot});
    if (node.leaf()) return pid;
    // Search checked entry slot-1, the child's; FetchNode checks the id.
    pid = node.child(slot);
  }
  return Status::DataLoss("B-tree descent exceeded height " +
                          std::to_string(height_) + " (cyclic child links?)");
}

StatusOr<bool> BTree::ContainsKey(std::string_view user_key) const {
  Cursor c = NewCursor();
  RETURN_IF_ERROR(c.Seek(user_key));
  return c.Valid() && c.user_key() == user_key;
}

Status BTree::Cursor::LoadLeaf(PageId leaf) {
  leaf_ = leaf;
  ASSIGN_OR_RETURN(page_, tree_->FetchNode(leaf));
  if (!NodeView(page_).leaf()) {
    return NodeCorrupt(leaf, "leaf chain reached an internal node");
  }
  return Status::OK();
}

Status BTree::Cursor::Settle() {
  valid_ = false;
  while (pos_ >= NodeView(page_).count()) {
    PageId next = NodeView(page_).next();
    if (next == kInvalidPage) return Status::OK();  // Past the last entry.
    RETURN_IF_ERROR(LoadLeaf(next));
    pos_ = 0;
  }
  NodeView node(page_);
  if (!node.EntryOk(pos_)) return NodeCorrupt(leaf_, "entry overruns page");
  std::string_view stored = node.key(pos_);
  user_key_ = stored.substr(0, stored.size() - kTidBytes);
  tid_ = Tid::Unpack(node.tid(pos_));
  valid_ = true;
  return Status::OK();
}

Status BTree::Cursor::Seek(std::string_view start) {
  valid_ = false;
  ASSIGN_OR_RETURN(PageId leaf, tree_->FindLeaf(start));
  RETURN_IF_ERROR(LoadLeaf(leaf));
  ASSIGN_OR_RETURN(pos_,
                   Search(NodeView(page_), leaf, start, /*upper=*/false));
  return Settle();
}

Status BTree::Cursor::Next() {
  if (!valid_) return Status::OK();
  ++pos_;
  return Settle();
}

}  // namespace systemr
