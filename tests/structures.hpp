// The registry of structure families: every member of every family is
// listed once, here, and each family's checks run over its list.  A
// structure enrolls with one edit to its family's line, plus an adapter
// below only when its API differs from the family's.
//
//   family     operations                            checks
//   sets       insert / remove / contains            test_sets.cpp
//   maps       insert(k, v) / get / erase            test_maps.cpp
//   stacks     push / try_pop                        test_stacks.cpp
//   queues     enqueue / try_dequeue                 test_queues.cpp
//   counters   fetch_add(d) -> prior / load          test_counters.cpp
//   pqueues    push / pop_min                        test_pqueues.cpp
//
// Every family check runs at 4 threads and oversubscribed
// (test_util.hpp's family_runs()); test_linearizability.cpp
// generates the live Wing-Gong histories from the same lists.
// Reclaimer-generic members are crossed with the one policy list,
// `Reclaimers`; combining fronts with every engine, `CrossEngines`.  A
// member whose contract is weaker than its family's specification sits on
// a list of its own, with the reason, and is enrolled only in the checks
// it promises.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>

#include "counter/combining_counter.hpp"
#include "counter/combining_tree.hpp"
#include "counter/counters.hpp"
#include "counter/counting_network.hpp"
#include "hash/coarse_hash_map.hpp"
#include "hash/split_ordered_set.hpp"
#include "hash/striped_hash_map.hpp"
#include "hash/swiss_hash_map.hpp"
#include "list/coarse_list.hpp"
#include "list/harris_list.hpp"
#include "list/hoh_list.hpp"
#include "list/lazy_list.hpp"
#include "list/optimistic_list.hpp"
#include "queue/blocking_queue.hpp"
#include "queue/coarse_queue.hpp"
#include "queue/combining_queue.hpp"
#include "queue/mpmc_queue.hpp"
#include "queue/ms_queue.hpp"
#include "queue/two_lock_queue.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/qsbr.hpp"
#include "skiplist/batched_map.hpp"
#include "skiplist/batched_skiplist.hpp"
#include "skiplist/lazy_skiplist.hpp"
#include "skiplist/lockfree_skiplist.hpp"
#include "skiplist/seq_skiplist.hpp"
#include "stack/coarse_stack.hpp"
#include "stack/combining_stack.hpp"
#include "stack/elimination_stack.hpp"
#include "stack/treiber_stack.hpp"
#include "sync/engines.hpp"
#include "sync/spinlock.hpp"
#include "sync/ticket_lock.hpp"
#include "tree/fine_bst.hpp"
#include "tree/seq_avl.hpp"
#include "tree/tombstone_bst.hpp"

namespace ccds::test {

// ---------- type lists ----------

template <typename... Ts>
struct List {};

template <typename... Ls>
struct ConcatList;
template <typename... Ts>
struct ConcatList<List<Ts...>> {
  using type = List<Ts...>;
};
template <typename... As, typename... Bs, typename... Rest>
struct ConcatList<List<As...>, List<Bs...>, Rest...>
    : ConcatList<List<As..., Bs...>, Rest...> {};
template <typename... Ls>
using Concat = typename ConcatList<Ls...>::type;

// Cross<F, List<D...>> is List<F<D>...>: a member under every policy.
template <template <typename> class F, typename L>
struct CrossList;
template <template <typename> class F, typename... Ts>
struct CrossList<F, List<Ts...>> {
  using type = List<F<Ts>...>;
};
template <template <typename> class F, typename L>
using Cross = typename CrossList<F, L>::type;

// Contains<L, T>: T is a member of L.
template <typename L, typename T>
inline constexpr bool Contains = false;
template <typename... Ts, typename T>
inline constexpr bool Contains<List<Ts...>, T> =
    (std::is_same_v<Ts, T> || ...);

// The engine axis: CrossEngines<F> is List<F<E>...> over every engine of
// sync/engines.hpp's X-macro, for a combining front F.
#define CCDS_FRONT(E) F<E>
template <template <template <typename> class> class F>
using CrossEngines = List<CCDS_COMBINER_ENGINE_LIST(CCDS_FRONT)>;
#undef CCDS_FRONT

// The gtest type list of a registry list, for TYPED_TEST_SUITE.
template <typename L>
struct GTestList;
template <typename... Ts>
struct GTestList<List<Ts...>> {
  using type = ::testing::Types<Ts...>;
};
template <typename L>
using Types = typename GTestList<L>::type;

// ---------- the policy axis ----------

// Every reclamation policy a reclaimer-generic member is checked under.
// WideHazardDomain stands in for hazard pointers: the skip lists need a
// preds/succs slot pair per level, which the default 8-slot domain cannot
// cover, and one domain per policy keeps the matrix a cross-product.
// Members whose default is the 8-slot HazardDomain list it as well.
using Reclaimers = List<LeakyDomain, WideHazardDomain, EpochDomain,
                        QsbrDomain, EpochLeaseDomain, LeasedDomain<QsbrDomain>>;

using Key = std::uint64_t;

// ---------- sets ----------

template <typename D>
using HarrisSet = HarrisMichaelListSet<Key, D>;
template <typename D>
using OptimisticSet = OptimisticListSet<Key, std::less<Key>, TtasLock, D>;
template <typename D>
using LazySet = LazyListSet<Key, std::less<Key>, TtasLock, D>;
template <typename D>
using SplitOrderedSet = SplitOrderedHashSet<Key, MixHash<Key>, D>;
template <typename D>
using LazySkipSet = LazySkipListSet<Key, std::less<Key>, TtasLock, D>;
template <typename D>
using LockFreeSkipSet = LockFreeSkipListSet<Key, std::less<Key>, D>;
// Towers drawn from the key, as E18's lock-free arm (bench_batched.cpp)
// runs it: a key removed and inserted again gets the same height.
template <typename D>
using KeyedLockFreeSkipSet =
    LockFreeSkipListSet<Key, std::less<Key>, D, SkipListLevels::kKeyed>;
template <template <typename> class E>
using BatchedSet = BatchedSkipListSet<Key, std::less<Key>, E>;
using BatchedSets = CrossEngines<BatchedSet>;

// 64 consecutive keys share a split-order key, so searches walk long
// equal-key collision runs; a live history's keys 0-2 share one run.
struct CollisionRunHash {
  std::uint64_t operator()(Key k) const noexcept { return mix64(k >> 6); }
};

// Every operation on a list walks it from the head.
using ListSets = Concat<List<CoarseListSet<Key>, HandOverHandListSet<Key>,
                             HarrisMichaelListSet<Key, HazardDomain>>,
                        Cross<HarrisSet, Reclaimers>,
                        Cross<OptimisticSet, Reclaimers>,
                        Cross<LazySet, Reclaimers>>;
// The split-ordered set under its default 8-slot hazard domain and every
// policy; test_hashmaps.cpp also grows these concurrently.
using SplitOrderedSets = Concat<List<SplitOrderedSet<HazardDomain>>,
                                Cross<SplitOrderedSet, Reclaimers>>;

using Sets = Concat<
    ListSets, SplitOrderedSets,
    List<SplitOrderedHashSet<Key, CollisionRunHash>, CoarseSkipListSet<Key>,
         CoarseAvlSet<Key>, TombstoneBstSet<Key>, FineBstSet<Key>>,
    Cross<LazySkipSet, Reclaimers>, Cross<LockFreeSkipSet, Reclaimers>,
    Cross<KeyedLockFreeSkipSet, Reclaimers>, BatchedSets>;
// Not thread-safe: the sequential check only.
using SequentialSets = List<SeqSkipListSet<Key>, SeqAvlSet<Key>>;

// ---------- maps ----------

template <typename D>
using SwissMap = SwissHashMap<Key, Key, MixHash<Key>, D>;
// BatchedMap writes with put(), which also answers "was the key new".
template <template <typename> class E>
struct BatchedMapFront : BatchedMap<Key, Key, std::less<Key>, E> {
  bool insert(Key k, Key v) { return this->put(k, v); }
};
using BatchedMaps = CrossEngines<BatchedMapFront>;

using Maps =
    Concat<List<CoarseHashMap<Key, Key>, StripedHashMap<Key, Key>,
                SwissHashMap<Key, Key, MixHash<Key>, HazardDomain>>,
           Cross<SwissMap, Reclaimers>, BatchedMaps>;
// swiss::OneWriter admits one writer at a time: the sequential check only
// (test_hashmaps.cpp runs its one writer beside readers).
using OneWriterMaps =
    List<SwissHashMap<Key, Key, MixHash<Key>, EpochDomain, swiss::OneWriter>>;

// ---------- stacks ----------

template <typename D>
using Treiber = TreiberStack<Key, D>;
template <typename D>
using Elimination = EliminationBackoffStack<Key, D>;
template <template <typename> class E>
using CombiningStackOver = CombiningStack<Key, E>;
using CombiningStacks = CrossEngines<CombiningStackOver>;

using Stacks =
    Concat<List<LockStack<Key>, LockStack<Key, TtasLock>,
                TreiberStack<Key, HazardDomain>,
                EliminationBackoffStack<Key, HazardDomain>>,
           Cross<Treiber, Reclaimers>, Cross<Elimination, Reclaimers>,
           CombiningStacks>;

// ---------- queues ----------

template <typename D>
using MichaelScott = MSQueue<Key, D>;
template <template <typename> class E>
using CombiningQueueOver = CombiningQueue<Key, E>;
using CombiningQueues = CrossEngines<CombiningQueueOver>;

// The bounded queues wait for room, as the family's enqueue never fails;
// 256 slots make the checks wrap the ring many times.
struct VyukovQueue {
  MpmcQueue<Key> q{256};
  void enqueue(Key v) {
    while (!q.try_enqueue(v)) std::this_thread::yield();
  }
  std::optional<Key> try_dequeue() { return q.try_dequeue(); }
};
struct BlockingQueue : BlockingBoundedQueue<Key> {
  BlockingQueue() : BlockingBoundedQueue<Key>(256) {}
  void enqueue(Key v) { push(v); }
  std::optional<Key> try_dequeue() { return try_pop(); }
};

// SpscRing admits one producer and one consumer, and the work-stealing
// deque one owner: no members (test_queues.cpp tests them).
using Queues =
    Concat<List<LockQueue<Key>, LockQueue<Key, TtasLock>, TwoLockQueue<Key>,
                TwoLockQueue<Key, TtasLock>, MSQueue<Key, HazardDomain>,
                VyukovQueue, BlockingQueue>,
           Cross<MichaelScott, Reclaimers>, CombiningQueues>;

// ---------- counters ----------

using CombiningCounters = CrossEngines<CombiningCounter>;

using Counters =
    Concat<List<LockCounter<std::mutex>, LockCounter<TtasLock>,
                LockCounter<TicketLock>, AtomicCounter, CombiningTreeCounter>,
           CombiningCounters>;

// A counting network is quiescently consistent, not linearizable: its
// values are unique, and contiguous once every call has returned, but a
// thread's next value may be smaller than its last.  Unit steps only.
template <int Width>
struct NetworkCounter : CountingNetworkCounter<Width> {
  std::uint64_t fetch_add(std::uint64_t) { return this->next(); }
  std::uint64_t load() const { return this->issued(); }
};
using QuiescentCounters = List<NetworkCounter<4>, NetworkCounter<8>>;
// ShardedCounter is no member: add() returns no prior to check
// (test_counters.cpp tests its sum).

// ---------- priority queues ----------

using PQueues = List<CoarsePriorityQueue<std::uint32_t>>;
// SkipListPriorityQueue::pop_min is not linearizable (a pop may miss a
// smaller key pushed while it runs): no live history.  Under every policy,
// since the hazard-pointer pop_min walks and snips on its own path.
template <typename D>
using SkipPQ = SkipListPriorityQueue<std::uint32_t, D>;
using RelaxedPQueues = Cross<SkipPQ, Reclaimers>;

// ---------- run sizes ----------

// A check that grows its member to n entries sizes the run with
// grown<S>(n), since on two kinds of member every operation costs O(n):
// a list walks its nodes (n / 8), and P-Sim copies a front's whole state
// on every combining round (n / 16).  Every other member gets n.
using PSimFronts = List<BatchedSet<PSim>, BatchedMapFront<PSim>,
                        CombiningStackOver<PSim>, CombiningQueueOver<PSim>>;
template <typename S>
constexpr std::size_t grown(std::size_t n) {
  if (Contains<PSimFronts, S>) return n / 16;
  return Contains<ListSets, S> ? n / 8 : n;
}

}  // namespace ccds::test
