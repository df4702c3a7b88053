// Weighted LRU map: a bounded key -> value store that evicts the least
// recently used entries until the summed entry weights fit its budget.
// Each insert names its entry's weight, so a weight of 1 gives a count
// budget (the plan cache) and a byte estimate gives a byte budget (the
// result cache). An entry heavier than the whole budget is rejected: it
// would evict everything and still not fit.
//
// Entries live in one list in recency order (front = most recent) and a
// hash index points at their list nodes, so lookup, refresh, insert and
// eviction are O(1) and a value's address is stable until the entry is
// erased. Single-threaded, like its owners.
#ifndef FGPM_COMMON_LRU_CACHE_H_
#define FGPM_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace fgpm {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  struct Node {
    K key;
    V value;
    size_t weight;
  };

  explicit LruCache(size_t budget) : budget_(budget) {}
  // The index holds iterators into this cache's own list.
  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // The value under `key`, refreshed to most recent; null on a miss.
  V* Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  // Inserts `value` under `key`, replacing any entry already there, then
  // evicts least recently used entries until the total weight fits.
  // Returns the stored value, or null (and changes nothing) when
  // `weight` alone exceeds the budget.
  V* Put(const K& key, V value, size_t weight) {
    if (weight > budget_) return nullptr;
    auto it = index_.find(key);
    if (it != index_.end()) Erase(it);
    while (!order_.empty() && weight_ + weight > budget_) {
      Erase(index_.find(order_.back().key));
      ++evictions_;
    }
    order_.push_front(Node{key, std::move(value), weight});
    index_.emplace(key, order_.begin());
    weight_ += weight;
    return &order_.front().value;
  }

  // Drops every entry; the eviction count is kept.
  void Clear() {
    index_.clear();
    order_.clear();
    weight_ = 0;
  }

  // Entries from most to least recently used; iterating does not
  // refresh recency.
  auto begin() const { return order_.begin(); }
  auto end() const { return order_.end(); }

  size_t size() const { return order_.size(); }
  size_t weight() const { return weight_; }
  size_t budget() const { return budget_; }
  // Entries removed to make room for an insert (not replacements or
  // Clear), over the cache's lifetime.
  uint64_t evictions() const { return evictions_; }

 private:
  using Index =
      std::unordered_map<K, typename std::list<Node>::iterator, Hash>;

  void Erase(typename Index::iterator it) {
    weight_ -= it->second->weight;
    order_.erase(it->second);
    index_.erase(it);
  }

  size_t budget_;
  size_t weight_ = 0;
  uint64_t evictions_ = 0;
  std::list<Node> order_;
  Index index_;
};

}  // namespace fgpm

#endif  // FGPM_COMMON_LRU_CACHE_H_
