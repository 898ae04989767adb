// Lock-free skip list set with RESTART-FREE local recovery (Fomitchev &
// Ruppert, PODC 2004), with a Lotan–Shavit style pop_min for priority-queue
// use.
//
// Every level is a lock-free list; the bottom level is the authoritative
// set, upper levels are shortcuts.  Deletion of a node at one level is a
// three-step protocol over two tag bits packed into the forward pointers
// (bit0 = MARK, bit1 = FLAG; a pointer is clean, marked, or flagged — never
// both):
//
//   1. FLAG the predecessor:  pred.next = FLAG(victim).  A flagged pointer
//      is a promise: "my successor is being deleted".  No insert can splice
//      after pred and no mark can land on pred at this level while the flag
//      stands, so the flagged pred is a stable anchor for step 2.
//   2. BACKLINK + MARK the victim:  victim.backlink = pred, then
//      victim.next = MARK(succ).  The mark freezes the victim's forward
//      pointer (every CAS in the algorithm expects a clean value); the
//      backlink, written before the mark becomes visible, is the escape
//      route for anyone stranded on the dead node.
//   3. HELP-UNLINK:  pred.next: FLAG(victim) -> succ (one CAS clears the
//      flag and snips the victim).  Any thread that encounters a flagged
//      pointer can run steps 2-3 — a stalled deleter never blocks others.
//
//        pred          victim         succ
//       [ A ]--FLAG-->[ B ]--MARK-->[ C ]        step 1+2
//         ^             |
//         +--backlink---+
//       [ A ]---------------------->[ C ]        step 3 (unlink clears FLAG)
//
// LOCAL RECOVERY (the point of the scheme): a traversal or CAS that fails
// because its predecessor got marked does NOT re-descend from the head — it
// walks `backlink` pointers left to the nearest live node and resumes.
// Backlink chains terminate: a flagged node cannot be marked, so the node a
// backlink names was live when recorded, and chains of marked nodes end at
// a live predecessor (ultimately the never-marked head).  Under hot-key
// contention this turns each conflict from an O(log n) re-descent into an
// O(1) step back, preventing the restart cascades both exemplar studies
// identify as the dominant contention cost (4-6x at high thread counts).
//
// Deletion order across levels: a remover completes the protocol on every
// upper level (top-down) before touching level 0, and an upper level the
// victim was never linked at is still MARKED (mark_unlinked_level) so a
// lagging inserter cannot re-link a half-dead tower unseen.  Hence the
// structure invariant: a bottom-marked node is marked at every level.  The
// bottom-level FLAG CAS decides the winning remover (exactly one such CAS
// can succeed per victim — the flag only clears together with the unlink of
// the then-marked victim, which can never be re-found); the bottom-level
// MARK remains the linearization point of the removal.
//
// Reclamation is pluggable (epoch by default).  After the winner's final
// find() pass the victim is unlinked at every level (each level's incoming
// pointer lies on the search path for its key; resurrected links to marked
// nodes are snipped by search_level), so it is retired exactly once.  A
// stale insert CAS cannot re-link a retired node because its expected value
// is the node pointer itself (no ABA while a guard protects it).
//
// Under a POINTER-BASED domain (hazard pointers) backlinks are unusable: a
// marked node's backlink is immutable, so there is no source to validate a
// hazard against — the target may have been retired before the hazard was
// published.  Those instantiations therefore keep the mark-only protocol
// with hand-over-hand protection and head-restart recovery (the flag bit
// never appears):
//
//   * A marked pred->next[level] means pred was logically deleted under us;
//     its frozen link may name an already-freed successor, so the traversal
//     restarts from the head.
//   * Marked nodes must be snipped, not skipped: a successful snip CAS on a
//     live pred proves the successor was not yet unlinked at this level,
//     hence not yet retired, hence safe to protect-and-validate next.
//   * Slot budget: preds[l] in slot l, succs[l] in slot kSkipListMaxLevel+l,
//     plus a walking pred, a candidate, and the inserter's own node —
//     2*kSkipListMaxLevel + 3 = 35 slots (static_asserted below;
//     WideHazardDomain provides 40).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/arch.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/reclaim.hpp"
#include "skiplist/seq_skiplist.hpp"

namespace ccds {

// SkipListLevels (kRandom / kKeyed tower-height policy) lives in
// skiplist/seq_skiplist.hpp, shared with the sequential structure.

template <typename Key, typename Compare = std::less<Key>,
          reclaimer Domain = EpochDomain,
          SkipListLevels Levels = SkipListLevels::kRandom>
class LockFreeSkipListSet {
  static_assert(!reclaimer_traits<Domain>::pointer_based ||
                    Domain::kSlots >= 2 * kSkipListMaxLevel + 3,
                "pointer-based traversal needs a preds/succs pair per level "
                "plus walking scratch — use WideHazardDomain");

 public:
  LockFreeSkipListSet() : head_(new Node{}) {
    head_->height = kSkipListMaxLevel;
  }
  LockFreeSkipListSet(const LockFreeSkipListSet&) = delete;
  LockFreeSkipListSet& operator=(const LockFreeSkipListSet&) = delete;

  ~LockFreeSkipListSet() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = strip(n->next[0].load(std::memory_order_relaxed));  // relaxed: destructor
      delete n;
      n = next;
    }
  }

  // Wait-free traversal under blanket domains (never snips, never CASes;
  // walks straight through marked nodes and past flagged links — a flagged
  // node is still live).  Pointer-based domains reuse the snipping find.
  bool contains(const Key& key) {
    auto g = domain_.guard();
    if constexpr (kPointerBased) {
      Node* preds[kSkipListMaxLevel];
      Node* succs[kSkipListMaxLevel];
      return find_hp(key, preds, succs, g);
    } else {
      Node* pred = head_;
      Node* curr = nullptr;
      for (int level = kSkipListMaxLevel - 1; level >= 0; --level) {
        curr = strip(pred->next[level].load(std::memory_order_acquire));
        for (;;) {
          if (curr == nullptr) break;
          Node* succ_raw = curr->next[level].load(std::memory_order_acquire);
          if (is_marked(succ_raw)) {
            // Logically deleted: skip over it without helping.
            curr = strip(succ_raw);
            continue;
          }
          if (comp_(curr->key, key)) {
            pred = curr;
            curr = strip(succ_raw);
            continue;
          }
          break;
        }
      }
      return curr != nullptr && !comp_(key, curr->key) &&
             !is_marked(curr->next[0].load(std::memory_order_acquire));
    }
  }

  bool insert(const Key& key) {
    if constexpr (kPointerBased) {
      return insert_hp(key);
    } else {
      return insert_fr(key);
    }
  }

  bool remove(const Key& key) {
    Node* preds[kSkipListMaxLevel];
    Node* succs[kSkipListMaxLevel];
    auto g = domain_.guard();
    if (!find(key, preds, succs, g)) return false;
    Node* victim = succs[0];  // protected by slot kSkipListMaxLevel under HP
    return remove_node(victim, key, preds, g);
  }

  // Priority-queue pop: claim and remove the smallest unclaimed key.  Only
  // meaningful when the set is driven purely through insert/pop_min (mixing
  // with remove() of the same keys can double-deliver).
  std::optional<Key> pop_min() {
    auto g = domain_.guard();
    if constexpr (kPointerBased) {
      bool restart = true;
      while (restart) {
        restart = false;
        Node* pred = head_;
        for (;;) {
          Node* curr;
          if (!protect_next(g, pred, 0, kCurrSlot, curr)) {
            restart = true;  // pred died; its frozen link is unvalidatable
            break;
          }
          if (curr == nullptr) return std::nullopt;
          Node* succ_raw = curr->next[0].load(std::memory_order_acquire);
          if (is_marked(succ_raw)) {
            // Cannot walk through a marked node under HP — snip it (a
            // successful snip proves the successor is not yet retired).
            Node* expected = curr;
            if (!pred->next[0].compare_exchange_strong(
                    expected, strip(succ_raw), std::memory_order_release,
                    std::memory_order_relaxed)) {  // relaxed: failure restarts
              restart = true;
              break;
            }
            continue;
          }
          if (!curr->claimed.exchange(true, std::memory_order_acq_rel)) {
            const Key key = curr->key;
            remove_node_hp(curr, key, g);
            return key;
          }
          g.protect_raw(kPredSlot, curr);  // kCurrSlot covers the handover
          pred = curr;
        }
      }
      return std::nullopt;  // unreachable; placates control-flow analysis
    } else {
      Node* curr = strip(head_->next[0].load(std::memory_order_acquire));
      while (curr != nullptr) {
        Node* succ_raw = curr->next[0].load(std::memory_order_acquire);
        if (!is_marked(succ_raw) &&
            !curr->claimed.exchange(true, std::memory_order_acq_rel)) {
          const Key key = curr->key;
          Node* preds[kSkipListMaxLevel];
          Node* succs[kSkipListMaxLevel];
          find(key, preds, succs, g);  // windows for the per-level deletion
          remove_node(curr, key, preds, g);
          return key;
        }
        curr = strip(succ_raw);
      }
      return std::nullopt;
    }
  }

  Domain& domain() noexcept { return domain_; }

 private:
  struct Node {
    Key key{};
    int height = 0;
    std::atomic<bool> claimed{false};  // pop_min coordination only
    std::atomic<Node*> next[kSkipListMaxLevel] = {};
    // Escape route out of a marked node, one per level; written (to the
    // then-flagged predecessor) before the level's mark becomes visible and
    // immutable afterwards.  Unused (always null) under pointer-based
    // domains.  Memory: doubles the link footprint — the price of O(1)
    // recovery; see E17.
    std::atomic<Node*> backlink[kSkipListMaxLevel] = {};
  };

  // Pointer-based domains run the mark-only protocol: backlinks are only
  // sound under blanket protection (header comment).
  static constexpr bool kPointerBased = reclaimer_traits<Domain>::pointer_based;
  // Scratch slots past the preds/succs banks (HP mode only).
  static constexpr std::size_t kPredSlot = 2 * kSkipListMaxLevel;
  static constexpr std::size_t kCurrSlot = 2 * kSkipListMaxLevel + 1;
  static constexpr std::size_t kNodeSlot = 2 * kSkipListMaxLevel + 2;

  // guard() may return a Guard or (via LeasedDomain) a Lease.
  using GuardT = decltype(std::declval<Domain&>().guard());

  // ----- tagged pointers: bit0 = mark (node deleted), bit1 = flag
  // (successor being deleted).  Mutually exclusive by protocol. -----
  static constexpr std::uintptr_t kMarkBit = 1;
  static constexpr std::uintptr_t kFlagBit = 2;

  static bool is_marked(Node* p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & kMarkBit) != 0;
  }
  static bool is_flagged(Node* p) noexcept {
    return (reinterpret_cast<std::uintptr_t>(p) & kFlagBit) != 0;
  }
  static Node* mark(Node* p) noexcept {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) |
                                   kMarkBit);
  }
  static Node* flag(Node* p) noexcept {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) |
                                   kFlagBit);
  }
  static Node* strip(Node* p) noexcept {
    return reinterpret_cast<Node*>(reinterpret_cast<std::uintptr_t>(p) &
                                   ~(kMarkBit | kFlagBit));
  }

  // =========================================================================
  // Fomitchev–Ruppert protocol (blanket domains)
  // =========================================================================

  // Escape a marked predecessor by walking backlinks to the nearest node
  // that is live at `level`.  Sound under blanket guards only: everything a
  // backlink can name was unlinked (hence retired) after this guard began.
  // The null fallback covers the one backlink-less way to be marked —
  // mark_unlinked_level() on a never-linked level — by degrading to the
  // head (a full-width walk at this level, not a full re-descent).
  Node* backtrack(Node* n, int level, GuardT&) {
    do {
      Node* b = n->backlink[level].load(std::memory_order_acquire);
      n = b == nullptr ? head_ : b;
    } while (is_marked(n->next[level].load(std::memory_order_acquire)));
    return n;
  }

  // Step 3: swing the flagged pred past the (marked, frozen) victim,
  // clearing the flag in the same CAS.  Idempotent across helpers.
  void help_marked(Node* pred, Node* victim, int level, GuardT&) {
    Node* succ = strip(victim->next[level].load(std::memory_order_acquire));
    Node* expected = flag(victim);
    pred->next[level].compare_exchange_strong(
        expected, succ, std::memory_order_release,
        std::memory_order_relaxed);  // relaxed: failure = someone unlinked it
  }

  // Steps 2+3 for an already-flagged (pred, victim) pair: record the escape
  // route, freeze the victim, unlink it.  Any thread may run this; every
  // participant writes the same backlink value (the unique flagged pred).
  void help_flagged(Node* pred, Node* victim, int level, GuardT& g) {
    victim->backlink[level].store(pred, std::memory_order_release);
    Node* s = victim->next[level].load(std::memory_order_acquire);
    while (!is_marked(s)) {
      if (is_flagged(s)) {
        // A flagged pointer cannot be marked: the victim's own successor is
        // mid-deletion; complete that deletion first (FR TryMark).
        help_flagged(victim, strip(s), level, g);
        s = victim->next[level].load(std::memory_order_acquire);
        continue;
      }
      if (victim->next[level].compare_exchange_weak(
              s, mark(s), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        break;
      }
    }
    help_marked(pred, victim, level, g);
  }

  // Mark victim at a level it is NOT linked at (try_flag returned kGone),
  // so a lagging inserter that still holds victim in its succs[] cannot
  // re-link a half-deleted tower unseen: insert's tower loop re-reads
  // victim->next[level] and aborts on the mark.  Preserves the structure
  // invariant "bottom-marked => marked at every level".
  void mark_unlinked_level(Node* victim, int level, GuardT& g) {
    Node* s = victim->next[level].load(std::memory_order_acquire);
    while (!is_marked(s)) {
      if (is_flagged(s)) {
        help_flagged(victim, strip(s), level, g);
        s = victim->next[level].load(std::memory_order_acquire);
        continue;
      }
      if (victim->next[level].compare_exchange_weak(
              s, mark(s), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        break;
      }
    }
  }

  // Level-local window search: starting from `pred` (pred->key < key, or
  // the head), walk right at `level` until pred->key < key <= curr->key,
  // helping complete any deletion in the way.  Never fails: a marked pred
  // is escaped through its backlinks, never by re-descending.
  void search_level(const Key& key, int level, Node*& pred_io, Node*& curr_out,
                    GuardT& g) {
    Node* pred = pred_io;
    Node* curr;
    for (;;) {
      Node* raw = pred->next[level].load(std::memory_order_acquire);
      if (is_marked(raw)) {
        pred = backtrack(pred, level, g);
        continue;
      }
      curr = strip(raw);
      if (is_flagged(raw)) {
        // curr is mid-deletion; finish it so the window comes out clean.
        help_flagged(pred, curr, level, g);
        continue;
      }
      if (curr == nullptr) break;
      Node* csucc = curr->next[level].load(std::memory_order_acquire);
      if (is_marked(csucc)) {
        // A marked node behind a CLEAN link: an insert raced a deletion and
        // resurrected the link (or mark_unlinked_level beat the inserter).
        // Snip it directly — there is no flagged pred to help through.
        Node* expected = curr;
        pred->next[level].compare_exchange_strong(
            expected, strip(csucc), std::memory_order_release,
            std::memory_order_relaxed);  // relaxed: loop re-reads
        continue;
      }
      if (comp_(curr->key, key)) {
        pred = curr;
        continue;
      }
      break;
    }
    pred_io = pred;
    curr_out = curr;
  }

  // Full-height window search (blanket flavor).  On return preds[l] /
  // succs[l] bracket `key` at level l; returns whether succs[0] holds
  // `key`.  One descent always completes: all recovery is level-local.
  bool find(const Key& key, Node** preds, Node** succs, GuardT& g) {
    if constexpr (kPointerBased) {
      return find_hp(key, preds, succs, g);
    } else {
      Node* pred = head_;
      for (int level = kSkipListMaxLevel - 1; level >= 0; --level) {
        Node* curr;
        search_level(key, level, pred, curr, g);
        preds[level] = pred;
        succs[level] = curr;
      }
      Node* bottom = succs[0];
      return bottom != nullptr && !comp_(key, bottom->key) &&
             !comp_(bottom->key, key);
    }
  }

  enum class FlagResult { kWon, kLost, kGone };

  // Step 1: place the deletion flag on victim's level-`level` predecessor.
  // `pred` is a search hint (pred->key < victim->key); on kWon/kLost it is
  // updated to the flagged pred.  kWon = OUR CAS placed the flag (at the
  // bottom level this elects the winning remover), kLost = another
  // deleter's flag is standing, kGone = victim is no longer linked at this
  // level.
  FlagResult try_flag(Node*& pred, Node* victim, int level, GuardT& g) {
    for (;;) {
      Node* raw = pred->next[level].load(std::memory_order_acquire);
      if (raw == flag(victim)) return FlagResult::kLost;
      if (is_marked(raw)) {
        pred = backtrack(pred, level, g);
        continue;
      }
      if (is_flagged(raw)) {
        help_flagged(pred, strip(raw), level, g);
        continue;
      }
      if (strip(raw) != victim) {
        Node* curr;
        search_level(victim->key, level, pred, curr, g);
        if (curr != victim) return FlagResult::kGone;
        continue;  // re-read pred->next: it may already carry the flag
      }
      Node* expected = victim;
      if (pred->next[level].compare_exchange_strong(
              expected, flag(victim), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {  // relaxed: loop re-reads
        return FlagResult::kWon;
      }
    }
  }

  // Complete the deletion protocol for `victim` at one UPPER level: flag +
  // help if linked, force-mark if not.  Whatever the interleaving, victim
  // is marked at `level` when this returns.
  void delete_upper_level(Node* pred, Node* victim, int level, GuardT& g) {
    if (try_flag(pred, victim, level, g) == FlagResult::kGone) {
      mark_unlinked_level(victim, level, g);
    } else {
      help_flagged(pred, victim, level, g);
    }
  }

  // Full removal of `victim` (blanket protocol): upper levels top-down,
  // then the bottom-level flag election.  Returns true iff this thread won
  // the bottom level; the winner runs the final unlink pass and retires.
  // `preds` is the search-hint window from a find() for victim->key.
  bool remove_node(Node* victim, const Key& key, Node** preds, GuardT& g) {
    if constexpr (kPointerBased) {
      return remove_node_hp(victim, key, g);
    } else {
      const int height = victim->height;
      for (int level = height - 1; level >= 1; --level) {
        delete_upper_level(preds[level], victim, level, g);
      }
      Node* pred = preds[0];
      const FlagResult r = try_flag(pred, victim, 0, g);
      if (r == FlagResult::kWon) {
        // Linearization point: the mark help_flagged is about to place.
        help_flagged(pred, victim, 0, g);
        // One full search pass snips any link a racing insert resurrected
        // (search_level's clean-link-to-marked-node branch), after which
        // the victim is unreachable at every level.
        Node* ps[kSkipListMaxLevel];
        Node* ss[kSkipListMaxLevel];
        find(key, ps, ss, g);
        domain_.retire(victim);
        return true;
      }
      if (r == FlagResult::kLost) {
        help_flagged(pred, victim, 0, g);  // finish the winner's work
      }
      return false;
    }
  }

  // Tower height per the Levels knob (file-header comment on kKeyed).
  static int draw_level(const Key& key) noexcept {
    if constexpr (Levels == SkipListLevels::kKeyed) {
      return skiplist_keyed_level(
          static_cast<std::uint64_t>(std::hash<Key>{}(key)));
    } else {
      return skiplist_random_level();
    }
  }

  // Blanket-mode insert with local recovery.
  bool insert_fr(const Key& key) {
    const int height = draw_level(key);
    Node* preds[kSkipListMaxLevel];
    Node* succs[kSkipListMaxLevel];
    auto g = domain_.guard();
    if (find(key, preds, succs, g)) return false;
    Node* n = new Node{};
    n->key = key;
    n->height = height;

    // ---- bottom-level splice: the linearization point of the insert ----
    Node* pred = preds[0];
    Node* succ = succs[0];
    for (;;) {
      // n is private until the CAS lands: plain stores are fine.
      // relaxed: links published by the bottom-level release CAS.
      for (int level = 0; level < height; ++level) {
        n->next[level].store(succs[level], std::memory_order_relaxed);
      }
      n->next[0].store(succ, std::memory_order_relaxed);  // relaxed: ditto
      Node* expected = succ;
      if (pred->next[0].compare_exchange_strong(
              expected, n, std::memory_order_release,
              std::memory_order_relaxed)) {  // relaxed: failure path re-searches
        break;
      }
      // CAS failed: repair the window without leaving level 0, helping any
      // deletion that got in the way.
      Node* raw = pred->next[0].load(std::memory_order_acquire);
      if (is_flagged(raw)) help_flagged(pred, strip(raw), 0, g);
      if (is_marked(pred->next[0].load(std::memory_order_acquire))) {
        pred = backtrack(pred, 0, g);
      }
      Node* curr;
      search_level(key, 0, pred, curr, g);
      succ = curr;
      if (succ != nullptr && !comp_(key, succ->key) &&
          !comp_(succ->key, key)) {
        delete n;  // duplicate appeared while we retried; n never published
        return false;
      }
      succs[0] = succ;
    }

    // ---- upper levels.  From here on n is public: every update to
    // n->next[level] must CAS (a delete-mark may land at any moment), and
    // after any successful link we re-check for deletion and snip ourselves
    // back out — otherwise a remover whose final pass already ran could
    // leave a persistent link to a retired node. ----
    for (int level = 1; level < height; ++level) {
      Node* lpred = preds[level];
      Node* lsucc = succs[level];
      for (;;) {
        Node* fwd = n->next[level].load(std::memory_order_acquire);
        if (is_marked(fwd)) {
          // n was deleted while we were building its tower; make sure it is
          // unlinked everywhere we may have linked it, then stop.
          find(key, preds, succs, g);
          return true;
        }
        if (lsucc == n) {
          // Degenerate window after a repair walked onto our own node.
          find(key, preds, succs, g);
          return true;
        }
        if (fwd != lsucc &&
            !n->next[level].compare_exchange_strong(
                fwd, lsucc, std::memory_order_release,
                std::memory_order_relaxed)) {  // relaxed: failure re-evaluates
          continue;  // lost to a marker (or helper); re-evaluate
        }
        Node* expected = lsucc;
        if (lpred->next[level].compare_exchange_strong(
                expected, n, std::memory_order_release,
                std::memory_order_relaxed)) {  // relaxed: failure repairs below
          // Re-validate: if a remover finished while we linked, its final
          // pass may have missed this brand-new link.
          if (is_marked(n->next[0].load(std::memory_order_acquire))) {
            find(key, preds, succs, g);
            return true;
          }
          break;
        }
        // Link failed: repair this level's window.
        Node* raw = lpred->next[level].load(std::memory_order_acquire);
        if (is_flagged(raw)) help_flagged(lpred, strip(raw), level, g);
        if (is_marked(lpred->next[level].load(std::memory_order_acquire))) {
          lpred = backtrack(lpred, level, g);
        }
        Node* curr;
        search_level(key, level, lpred, curr, g);
        lsucc = curr;
      }
    }
    return true;
  }

  // =========================================================================
  // Pointer-based (hazard) protocol: mark-only, hand-over-hand, restart
  // recovery.  Backlinks/flags are never used here (header comment).
  // =========================================================================

  bool insert_hp(const Key& key) {
    const int height = draw_level(key);
    Node* preds[kSkipListMaxLevel];
    Node* succs[kSkipListMaxLevel];
    auto g = domain_.guard();
    Node* n = nullptr;
    for (;;) {
      if (find_hp(key, preds, succs, g)) {
        delete n;  // n is still private here (or null); plain delete is fine
        return false;
      }
      if (n == nullptr) {
        n = new Node{};
        n->key = key;
        n->height = height;
        // Publish our own hazard for n while it is still private: once the
        // bottom-level splice lands, a concurrent remover may unlink and
        // retire n before we finish its tower.
        g.protect_raw(kNodeSlot, n);
      }
      // n is private until the bottom-level splice: plain stores are fine.
      // relaxed: links published by the bottom-level release CAS.
      for (int level = 0; level < height; ++level) {
        n->next[level].store(succs[level], std::memory_order_relaxed);
      }
      // Splice at the bottom level first: this is the linearization point.
      Node* expected = succs[0];
      if (!preds[0]->next[0].compare_exchange_strong(
              expected, n, std::memory_order_release,
              std::memory_order_relaxed)) {  // relaxed: failure re-finds
        continue;
      }

      // Link the upper levels (same CAS + re-check discipline as insert_fr;
      // recovery is always a full re-find under HP).
      for (int level = 1; level < height; ++level) {
        for (;;) {
          Node* fwd = n->next[level].load(std::memory_order_acquire);
          if (is_marked(fwd)) {
            find_hp(key, preds, succs, g);
            return true;
          }
          Node* succ = succs[level];
          if (fwd != succ &&
              !n->next[level].compare_exchange_strong(
                  fwd, succ, std::memory_order_release,
                  std::memory_order_relaxed)) {  // relaxed: failure re-evaluates
            continue;  // lost to a marker (or helper); re-evaluate
          }
          Node* expected_up = succ;
          if (preds[level]->next[level].compare_exchange_strong(
                  expected_up, n, std::memory_order_release,
                  std::memory_order_relaxed)) {  // relaxed: failure re-finds
            if (is_marked(n->next[0].load(std::memory_order_acquire))) {
              find_hp(key, preds, succs, g);
              return true;
            }
            break;
          }
          // Window moved: recompute.
          if (find_hp(key, preds, succs, g)) {
            if (succs[0] != n) return true;  // removed (+ maybe reinserted)
          } else {
            return true;  // removed entirely; find snipped any leftovers
          }
        }
      }
      return true;
    }
  }

  // HP helper: protect pred's level-`level` successor in `slot`.  Returns
  // false if the link is marked — pred died under us and its frozen link
  // cannot be validated (header comment) — in which case the caller must
  // restart from the head.  `pred` must itself be protected (or the head).
  bool protect_next(GuardT& g, Node* pred, int level, std::size_t slot,
                    Node*& out) {
    for (;;) {
      Node* raw = pred->next[level].load(std::memory_order_acquire);
      if (is_marked(raw)) return false;
      if (raw == nullptr) {
        out = nullptr;
        return true;
      }
      g.protect_raw(slot, raw);
      // Validating re-read: pred is live (unmarked link) and still points
      // at raw after the hazard was published, so raw cannot have been
      // retired before the publication.
      if (pred->next[level].load(std::memory_order_acquire) == raw) {
        out = raw;
        return true;
      }
    }
  }

  // Mark `victim` at every level (bottom mark is the linearization point),
  // then run one find pass to unlink it everywhere, then retire.  Returns
  // false if another thread won the bottom-level mark.  The caller must
  // hold a protection on victim; it is consumed here (the find pass
  // recycles the scratch slots, after which victim is only passed to
  // retire, never dereferenced).
  bool remove_node_hp(Node* victim, const Key& key, GuardT& g) {
    const int height = victim->height;
    // Mark top levels (idempotent; concurrent helpers welcome).
    for (int level = height - 1; level >= 1; --level) {
      Node* succ = victim->next[level].load(std::memory_order_acquire);
      while (!is_marked(succ)) {
        victim->next[level].compare_exchange_weak(succ, mark(succ),
                                                  std::memory_order_acq_rel,
                                                  std::memory_order_acquire);
      }
    }
    // Bottom-level mark decides the winner.
    Node* succ = victim->next[0].load(std::memory_order_acquire);
    for (;;) {
      if (is_marked(succ)) return false;  // lost
      if (victim->next[0].compare_exchange_weak(succ, mark(succ),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        // Winner: one full find pass unlinks the victim at every level it
        // occupies (find snips every marked node on the key's search path).
        Node* preds[kSkipListMaxLevel];
        Node* succs[kSkipListMaxLevel];
        find_hp(key, preds, succs, g);
        domain_.retire(victim);
        return true;
      }
    }
  }

  // HP flavor of find: hand-over-hand through kPredSlot/kCurrSlot, window
  // endpoints parked in the preds/succs slot banks before each descent.
  bool find_hp(const Key& key, Node** preds, Node** succs, GuardT& g) {
    bool restart = true;
    while (restart) {
      restart = false;
      Node* pred = head_;
      for (int level = kSkipListMaxLevel - 1; level >= 0 && !restart;
           --level) {
        for (;;) {
          Node* curr;
          if (!protect_next(g, pred, level, kCurrSlot, curr)) {
            restart = true;  // pred died; frozen link is unvalidatable
            break;
          }
          if (curr != nullptr) {
            Node* succ_raw = curr->next[level].load(std::memory_order_acquire);
            if (is_marked(succ_raw)) {
              // Snip the logically-deleted curr out of this level; success
              // proves the successor is not yet retired (header comment).
              Node* expected = curr;
              if (!pred->next[level].compare_exchange_strong(
                      expected, strip(succ_raw), std::memory_order_release,
                      std::memory_order_relaxed)) {  // relaxed: failure restarts
                restart = true;
                break;
              }
              continue;  // re-protect pred's (new) successor
            }
            if (comp_(curr->key, key)) {
              g.protect_raw(kPredSlot, curr);  // kCurrSlot covers the handover
              pred = curr;
              continue;
            }
          }
          // Park the window endpoints for this level: pred keeps a slot of
          // its own so the descent (which recycles kPredSlot/kCurrSlot) and
          // the caller's later CASes stay covered.
          g.protect_raw(static_cast<std::size_t>(level), pred);
          g.protect_raw(static_cast<std::size_t>(kSkipListMaxLevel) + level,
                        curr);
          preds[level] = pred;
          succs[level] = curr;
          break;
        }
      }
      if (restart) continue;
      Node* bottom = succs[0];
      return bottom != nullptr && !comp_(key, bottom->key) &&
             !comp_(bottom->key, key);
    }
    return false;  // unreachable; placates control-flow analysis
  }

  Node* const head_;
  mutable Domain domain_;
  [[no_unique_address]] Compare comp_{};
};

// Concurrent min-priority queue built on the lock-free skip list
// (Lotan & Shavit 2000): push inserts a unique (priority, sequence) key;
// pop_min claims the leftmost unclaimed node.  Duplicate priorities are
// allowed (disambiguated by the sequence counter).
template <typename Priority = std::uint32_t, reclaimer Domain = EpochDomain>
class SkipListPriorityQueue {
  static_assert(sizeof(Priority) <= 4,
                "priority must fit 32 bits (packed with a sequence number)");

 public:
  void push(Priority p) {
    const std::uint64_t seq =
        seq_.fetch_add(1, std::memory_order_relaxed) & 0xffffffffull;  // relaxed: unique-id counter
    list_.insert((static_cast<std::uint64_t>(p) << 32) | seq);
  }

  std::optional<Priority> pop_min() {
    auto v = list_.pop_min();
    if (!v) return std::nullopt;
    return static_cast<Priority>(*v >> 32);
  }

 private:
  LockFreeSkipListSet<std::uint64_t, std::less<std::uint64_t>, Domain> list_;
  std::atomic<std::uint64_t> seq_{0};  // unpadded: test scaffolding, not a hot path
};

// Coarse-grained binary-heap priority queue: the baseline for E9.
template <typename Priority = std::uint32_t, typename Lock = std::mutex>
class CoarsePriorityQueue {
 public:
  void push(Priority p) {
    std::lock_guard<Lock> g(lock_);
    heap_.push_back(p);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  std::optional<Priority> pop_min() {
    std::lock_guard<Lock> g(lock_);
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Priority p = heap_.back();
    heap_.pop_back();
    return p;
  }

 private:
  mutable Lock lock_;
  std::vector<Priority> heap_;
};

}  // namespace ccds
