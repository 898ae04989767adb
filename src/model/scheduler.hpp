// Deterministic-interleaving model checker (CHESS/loom style).
//
// The explorer runs a small fixed set of "model threads" cooperatively: each
// model thread is an OS thread, but a condition-variable token guarantees
// exactly one runs at a time.  Every instrumented operation (model::atomic
// load/store/RMW/wait/notify, model::mutex lock/unlock, spawn/join, yield)
// is a *schedule point*: the scheduler may hand the token to another
// runnable thread there.  A depth-first search over these decisions
// enumerates every interleaving reachable with at most `preemption_bound`
// involuntary context switches (switches away from a blocked/finished/
// yielding thread are free), which is the CHESS result: almost all real
// concurrency bugs manifest with <= 2 preemptions.
//
// On top of the interleaving search sits a bounded weak-memory layer in the
// loom tradition: each atomic keeps its full store history plus, for
// release-class stores, a snapshot of the storing thread's *view* (a vector
// clock over store indices).  A non-seq_cst load may return any store that
// coherence and happens-before allow — i.e. a `relaxed` load where `acquire`
// is required can observe a stale value in some explored schedule, which is
// exactly the class of bug random stress testing cannot reliably reach.
// Stale-read branching is budgeted (`stale_read_bound`) to keep the state
// space tractable; option 0 at every choice point is the sequentially
// consistent behavior, so exploration degrades gracefully toward plain CHESS
// when budgets are exhausted.
//
// Blocking waits: model::atomic::wait(old) blocks its thread, which is not
// runnable again until a notify on the same atomic (a store alone does not
// wake it, exactly like a futex), and a state in which every unfinished
// thread is blocked is a deadlock — so a lost wake-up is caught.
//
// Failure handling: CCDS_MODEL_ASSERT (or a detected deadlock / step-budget
// livelock) records the full choice list of the failing execution.  That
// list *is* the schedule: feed it back through Options::replay to
// deterministically re-run the single failing interleaving.
//
// What this can and cannot catch is documented in docs/testing.md §6.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_registry.hpp"

namespace ccds::model {

// ---------------------------------------------------------------------------
// Views: per-atomic minimum readable store index, joined along
// happens-before edges.  Index i in a view means "stores before i on that
// atomic are hb-overwritten for me: coherence forbids reading them".
// ---------------------------------------------------------------------------
using View = std::vector<std::uint32_t>;

inline void view_join(View& a, const View& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] > a[i]) a[i] = b[i];
  }
}

struct Options {
  // Max involuntary context switches per execution (CHESS bound).
  int preemption_bound = 2;
  // Max stale-read *branch points* per execution (loom-style weak memory).
  // 0 disables weak-memory exploration entirely (pure CHESS / SC).
  int stale_read_bound = 3;
  // How many stores back a single load may reach.
  int stale_window = 2;
  // Per-execution schedule-point budget; exceeding it fails the execution
  // (almost always a livelock: a spin loop whose exit condition can never
  // become true in this schedule).
  long max_steps = 50000;
  // Cap on total executions; exploration stops unexhausted beyond this.
  long max_executions = 1000000;
  // Non-empty: skip exploration and replay exactly this schedule (the
  // space-separated choice list from Result::schedule).
  std::string replay;
};

struct Result {
  bool ok = true;
  bool exhausted = false;  // the bounded space was fully explored
  long executions = 0;
  std::string error;     // failure description (empty when ok)
  std::string schedule;  // replayable choice list (failure only)
  std::string trace;     // human-readable failing interleaving (failure only)
};

// Thrown to unwind model threads when an execution aborts.  Never escapes
// the thread wrapper.
struct AbortExecution {};

namespace detail {

struct StoreRec {
  std::uint64_t value = 0;
  // Storing thread's view snapshot for release-class stores (readers that
  // acquire this store join it); null for relaxed stores.
  std::shared_ptr<const View> rel;
};

struct ChoiceRec {
  int chosen = 0;
  int num = 1;
};

struct TraceRec {
  int tid;
  const char* op;
  int obj;                 // atomic/mutex id, -1 if n/a
  std::uint64_t a, b;      // op-specific operands
  const char* mo;          // memory order name, "" if n/a
};

inline const char* mo_name(std::memory_order mo) {
  switch (mo) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

inline bool mo_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}

inline bool mo_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

}  // namespace detail

class ExecutionContext;

// The currently active execution, if any.  Model atomics constructed or used
// outside an execution degrade to plain sequential behavior.
inline ExecutionContext*& active_context() {
  static ExecutionContext* ctx = nullptr;
  return ctx;
}

// State backing one model atomic.  Lives inside the atomic object; the
// context only hands out ids (lazily, on first scheduled access).  `ctx`
// tags which execution last touched it so objects that outlive a single
// execution (statics, fixtures reused across explore() calls) are re-seeded
// from their final value instead of leaking ids and store history.
struct AtomicObj {
  const void* ctx = nullptr;
  int id = -1;
  std::vector<detail::StoreRec> stores;
};

struct MutexObj {
  const void* ctx = nullptr;
  int id = -1;
  bool held = false;
  int owner = -1;
  std::shared_ptr<const View> unlock_view;
};

class ExecutionContext {
 public:
  ExecutionContext(const Options& opt, const std::vector<detail::ChoiceRec>& prefix)
      : opt_(opt), prefix_(prefix) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // ---- driver side ---------------------------------------------------------

  void run(const std::function<void()>& fn) {
    // Every execution registers its threads from scratch, so the reclaimers'
    // registration-ceiling sweep bound is a function of the schedule too.
    ccds::detail::ThreadRegistry::instance().reset_ceiling();
    {
      std::unique_lock<std::mutex> lk(m_);
      spawn_locked(lk, fn, /*parent=*/-1);
      current_ = 0;
      threads_[0]->cv.notify_one();
      done_cv_.wait(lk, [&] {
        return live_os_ == 0 && (done_ || failed_ || aborting_);
      });
    }
    for (auto& t : threads_) {
      if (t->os.joinable()) t->os.join();
    }
  }

  bool failed() const { return failed_; }
  const std::string& fail_msg() const { return fail_msg_; }
  std::vector<detail::ChoiceRec>& choices() { return choices_; }

  std::string schedule_string() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < choices_.size(); ++i) {
      if (i) os << ' ';
      os << choices_[i].chosen;
    }
    return os.str();
  }

  std::string trace_string() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      const auto& r = trace_[i];
      os << '#' << i << "\tT" << r.tid << '\t' << r.op;
      if (r.obj >= 0) os << " obj" << r.obj;
      os << " a=0x" << std::hex << r.a << " b=0x" << r.b << std::dec;
      if (r.mo[0] != '\0') os << " [" << r.mo << ']';
      os << '\n';
    }
    return os.str();
  }

  // ---- model-thread side ---------------------------------------------------

  // Spawn a model thread running `body`; returns its id.  Schedule point.
  int spawn(std::function<void()> body) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) throw AbortExecution{};
    int id = spawn_locked(lk, std::move(body), current_);
    note(current_, "spawn", -1, static_cast<std::uint64_t>(id), 0, "");
    reschedule(lk, /*yielding=*/false);
    return id;
  }

  // Join a model thread.  Blocks (cooperatively) until it finishes.
  void join_thread(int target) {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      if (aborting_) throw AbortExecution{};
      ThreadState& t = *threads_[target];
      if (t.status == ThreadState::FINISHED) {
        view_join(threads_[current_]->view, t.view);
        note(current_, "join", -1, static_cast<std::uint64_t>(target), 0, "");
        return;
      }
      ThreadState& self = *threads_[current_];
      self.status = ThreadState::BLOCKED_JOIN;
      self.wait_target = target;
      reschedule(lk, false);
    }
  }

  void yield() {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) throw AbortExecution{};
    step(lk);
    reschedule(lk, /*yielding=*/true);
  }

  // ---- atomic operations ---------------------------------------------------

  std::uint64_t atomic_load(AtomicObj& o, std::memory_order mo) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) return o.stores.back().value;  // plain read during unwind
    step(lk);
    reschedule(lk, false);
    ensure(o);
    ThreadState& self = *threads_[current_];
    const std::size_t latest = o.stores.size() - 1;
    std::size_t idx = latest;
    // Weak-memory branch: a non-seq_cst load may read back past stores the
    // loader's view does not yet order before it.
    const std::size_t floor = self.view[o.id];
    if (mo != std::memory_order_seq_cst && latest > floor &&
        stale_branches_ < opt_.stale_read_bound) {
      ++stale_branches_;
      const int window = static_cast<int>(
          std::min<std::size_t>(latest - floor, opt_.stale_window));
      const int c = consume_choice(lk, window + 1);
      idx = latest - static_cast<std::size_t>(c);
    }
    if (idx > self.view[o.id]) self.view[o.id] = static_cast<std::uint32_t>(idx);
    const detail::StoreRec& s = o.stores[idx];
    if (s.rel) {
      if (detail::mo_acquire(mo)) {
        view_join(self.view, *s.rel);
      } else {
        view_join(self.pending_acq, *s.rel);  // harvested by acquire fences
      }
    }
    note(current_, "load", o.id, s.value, idx, detail::mo_name(mo));
    return s.value;
  }

  void atomic_store(AtomicObj& o, std::uint64_t v, std::memory_order mo) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) {
      o.stores.back().value = v;
      return;
    }
    step(lk);
    reschedule(lk, false);
    ensure(o);
    do_store(o, v, mo, /*read_rel=*/nullptr);
    note(current_, "store", o.id, v, o.stores.size() - 1, detail::mo_name(mo));
  }

  // Generic RMW: apply(old) -> new value.  Always reads the latest store
  // (C++ guarantees RMWs read the last value in modification order).
  std::uint64_t atomic_rmw(AtomicObj& o,
                           const std::function<std::uint64_t(std::uint64_t)>& apply,
                           std::memory_order mo, const char* opname) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) {
      const std::uint64_t old = o.stores.back().value;
      o.stores.back().value = apply(old);
      return old;
    }
    step(lk);
    reschedule(lk, false);
    ensure(o);
    ThreadState& self = *threads_[current_];
    const std::size_t latest = o.stores.size() - 1;
    self.view[o.id] = static_cast<std::uint32_t>(latest);
    const detail::StoreRec read = o.stores[latest];
    if (read.rel && detail::mo_acquire(mo)) view_join(self.view, *read.rel);
    if (read.rel && !detail::mo_acquire(mo)) view_join(self.pending_acq, *read.rel);
    do_store(o, apply(read.value), mo, read.rel ? &read.rel : nullptr);
    note(current_, opname, o.id, read.value, o.stores.back().value,
         detail::mo_name(mo));
    return read.value;
  }

  // CAS.  Returns {observed value, success}.
  std::pair<std::uint64_t, bool> atomic_cas(AtomicObj& o, std::uint64_t expected,
                                            std::uint64_t desired,
                                            std::memory_order success,
                                            std::memory_order failure) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) {
      const std::uint64_t old = o.stores.back().value;
      if (old == expected) o.stores.back().value = desired;
      return {old, old == expected};
    }
    step(lk);
    reschedule(lk, false);
    ensure(o);
    ThreadState& self = *threads_[current_];
    const std::size_t latest = o.stores.size() - 1;
    self.view[o.id] = static_cast<std::uint32_t>(latest);
    const detail::StoreRec read = o.stores[latest];
    const bool ok = read.value == expected;
    const std::memory_order mo = ok ? success : failure;
    if (read.rel && detail::mo_acquire(mo)) view_join(self.view, *read.rel);
    if (read.rel && !detail::mo_acquire(mo)) view_join(self.pending_acq, *read.rel);
    if (ok) do_store(o, desired, success, read.rel ? &read.rel : nullptr);
    note(current_, ok ? "cas+" : "cas-", o.id, read.value, desired,
         detail::mo_name(mo));
    return {read.value, ok};
  }

  // std::atomic<T>::wait(old): return once the value differs from `old`,
  // else block until a notify on this atomic, then re-check.  The compare
  // reads the newest store, as the kernel's futex compare does, so a value
  // changed before the wait is never missed; a change without a notify
  // leaves the thread blocked.  Spurious wake-ups are not modeled:
  // std::atomic::wait hides them behind the same re-check loop.
  void atomic_wait(AtomicObj& o, std::uint64_t old, std::memory_order mo) {
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      if (aborting_) throw AbortExecution{};
      step(lk);
      reschedule(lk, false);
      ensure(o);
      ThreadState& self = *threads_[current_];
      const std::size_t latest = o.stores.size() - 1;
      self.view[o.id] = static_cast<std::uint32_t>(latest);
      const detail::StoreRec& s = o.stores[latest];
      if (s.rel) {
        view_join(detail::mo_acquire(mo) ? self.view : self.pending_acq,
                  *s.rel);
      }
      note(current_, s.value == old ? "wait" : "wait-ret", o.id, s.value, old,
           detail::mo_name(mo));
      if (s.value != old) return;
      self.status = ThreadState::BLOCKED_WAIT;
      self.wait_target = o.id;
      reschedule(lk, false);
    }
  }

  // notify_one / notify_all: make one (a schedule choice when several
  // wait) or every thread blocked on this atomic runnable again.
  void atomic_notify(AtomicObj& o, bool all) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) return;
    step(lk);
    reschedule(lk, false);
    ensure(o);
    std::vector<int> waiters;
    for (auto& t : threads_) {
      if (t->status == ThreadState::BLOCKED_WAIT && t->wait_target == o.id) {
        waiters.push_back(t->id);
      }
    }
    if (!all && waiters.size() > 1) {
      const int c = consume_choice(lk, static_cast<int>(waiters.size()));
      waiters = {waiters[static_cast<std::size_t>(c)]};
    }
    for (int w : waiters) {
      threads_[static_cast<std::size_t>(w)]->status = ThreadState::RUNNABLE;
    }
    note(current_, all ? "notify_all" : "notify_one", o.id, waiters.size(), 0,
         "");
  }

  void fence(std::memory_order mo) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) return;
    step(lk);
    reschedule(lk, false);
    ThreadState& self = *threads_[current_];
    if (detail::mo_acquire(mo)) {
      // Promote every relaxed load since the last acquire edge.
      view_join(self.view, self.pending_acq);
      self.pending_acq.clear();
    }
    if (mo == std::memory_order_seq_cst) {
      // seq_cst fences are totally ordered (the order S; here, schedule
      // order), and a store sequenced before an earlier one is visible to
      // every load sequenced after a later one: each fence inherits the
      // view of all earlier ones and passes its own on.  That is the
      // store-buffering (Dekker) guarantee of a fence on both sides.
      view_join(sc_fence_view_, self.view);
      self.view = sc_fence_view_;
    }
    if (detail::mo_release(mo)) {
      // Subsequent relaxed stores publish everything before this fence.
      self.fence_rel = std::make_shared<const View>(self.view);
    }
    note(current_, "fence", -1, 0, 0, detail::mo_name(mo));
  }

  // Process-wide heavy barrier (ccds::asymmetric_heavy / Linux membarrier):
  // a seq_cst fence executed on behalf of EVERY model thread at this
  // schedule point.  Operationally membarrier means "each CPU ran smp_mb():
  // all store buffers drained, all invalidation queues flushed" — in this
  // model's terms, every store already appended to any atomic's history
  // becomes mandatory reading for every thread (its view floor rises to the
  // latest store index), and each thread additionally gets the acquire and
  // release effects of a fence at its current suspension point.  This only
  // REMOVES stale-read behaviors relative to not fencing, so modeling it is
  // sound: a protocol verified with heavy_fence() relies on exactly the
  // visibility the real barrier provides, and a seeded bug that downgrades
  // the reclaimer to the light (compiler-only) barrier re-opens the stale
  // branches and is caught (tests/model/test_model_reclaim.cpp).
  void heavy_fence() {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) return;
    step(lk);
    reschedule(lk, false);
    for (auto& t : threads_) {
      // Acquire half of the per-thread fence: promote relaxed-read edges.
      view_join(t->view, t->pending_acq);
      t->pending_acq.clear();
      // Freshness: no thread may read a store older than what was globally
      // visible when the barrier completed.
      if (t->view.size() < latest_idx_.size()) {
        t->view.resize(latest_idx_.size(), 0);
      }
      for (std::size_t i = 0; i < latest_idx_.size(); ++i) {
        if (t->view[i] < latest_idx_[i]) t->view[i] = latest_idx_[i];
      }
      // Release half: the thread's subsequent relaxed stores publish
      // everything it has done up to its current suspension point.
      t->fence_rel = std::make_shared<const View>(t->view);
    }
    note(current_, "heavy_fence", -1, 0, 0, "seq_cst*");
  }

  // ---- mutex ---------------------------------------------------------------

  void mutex_lock(MutexObj& mu) {
    std::unique_lock<std::mutex> lk(m_);
    ensure_mutex(mu);
    for (;;) {
      if (aborting_) throw AbortExecution{};
      step(lk);
      reschedule(lk, false);
      if (!mu.held) {
        mu.held = true;
        mu.owner = current_;
        if (mu.unlock_view) view_join(threads_[current_]->view, *mu.unlock_view);
        note(current_, "mlock", mu.id, 0, 0, "");
        return;
      }
      ThreadState& self = *threads_[current_];
      self.status = ThreadState::BLOCKED_MUTEX;
      self.wait_target = mu.id;
      reschedule(lk, false);
    }
  }

  bool mutex_try_lock(MutexObj& mu) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) throw AbortExecution{};
    ensure_mutex(mu);
    step(lk);
    reschedule(lk, false);
    if (mu.held) {
      note(current_, "mtrylock-", mu.id, 0, 0, "");
      return false;
    }
    mu.held = true;
    mu.owner = current_;
    if (mu.unlock_view) view_join(threads_[current_]->view, *mu.unlock_view);
    note(current_, "mtrylock+", mu.id, 0, 0, "");
    return true;
  }

  void mutex_unlock(MutexObj& mu) {
    std::unique_lock<std::mutex> lk(m_);
    if (aborting_) return;
    step(lk);
    reschedule(lk, false);
    mu.held = false;
    mu.owner = -1;
    mu.unlock_view = std::make_shared<const View>(threads_[current_]->view);
    for (auto& t : threads_) {
      if (t->status == ThreadState::BLOCKED_MUTEX && t->wait_target == mu.id) {
        t->status = ThreadState::RUNNABLE;  // all waiters re-contend
      }
    }
    note(current_, "munlock", mu.id, 0, 0, "");
  }

  // ---- failure -------------------------------------------------------------

  [[noreturn]] void fail(const std::string& msg) {
    std::unique_lock<std::mutex> lk(m_);
    fail_locked(msg);
  }

  // Lazily assign an id and make sure views can index it.  Must be called
  // with the lock held (all call sites above hold it).
  void ensure(AtomicObj& o) {
    if (o.ctx != this) {
      o.ctx = this;
      o.id = next_obj_id_++;
      // An object surviving from a previous execution keeps only its final
      // value as the initial store; old rel views index dead object ids.
      if (o.stores.size() > 1) o.stores.erase(o.stores.begin(), o.stores.end() - 1);
      if (!o.stores.empty()) o.stores.back().rel = nullptr;
    }
    if (latest_idx_.size() <= static_cast<std::size_t>(o.id)) {
      latest_idx_.resize(o.id + 1, 0);
    }
    latest_idx_[o.id] =
        o.stores.empty() ? 0
                         : static_cast<std::uint32_t>(o.stores.size() - 1);
    for (auto& t : threads_) {
      if (t->view.size() <= static_cast<std::size_t>(o.id)) {
        t->view.resize(o.id + 1, 0);
      }
    }
  }

  void ensure_mutex(MutexObj& mu) {
    if (mu.ctx != this) {
      mu.ctx = this;
      mu.id = next_obj_id_++;
      mu.held = false;
      mu.owner = -1;
      mu.unlock_view = nullptr;
    }
  }

 private:
  struct ThreadState {
    enum Status { RUNNABLE, BLOCKED_JOIN, BLOCKED_MUTEX, BLOCKED_WAIT,
                  FINISHED };
    int id = 0;
    Status status = RUNNABLE;
    int wait_target = -1;
    View view;
    View pending_acq;
    std::shared_ptr<const View> fence_rel;
    std::function<void()> body;
    std::thread os;
    std::condition_variable cv;
  };

  // ---- scheduling core -----------------------------------------------------

  void step(std::unique_lock<std::mutex>&) {
    if (++steps_ > opt_.max_steps) {
      fail_locked("step budget exceeded (livelock? raise Options::max_steps)");
    }
  }

  // The schedule point: pick who runs next, hand off if it is not us.
  void reschedule(std::unique_lock<std::mutex>& lk, bool yielding) {
    ThreadState& self = *threads_[current_];
    const bool self_runnable = self.status == ThreadState::RUNNABLE;
    std::vector<int> opts;
    if (self_runnable && !yielding) {
      opts.push_back(current_);
      if (preemptions_ < opt_.preemption_bound) {
        push_others(opts);
      }
    } else {
      push_others(opts);          // free switch: blocked, finished or yielding
      if (opts.empty() && self_runnable) opts.push_back(current_);  // spin alone
    }
    if (opts.empty()) {
      fail_locked("deadlock: no runnable thread");
    }
    int chosen = 0;
    if (opts.size() > 1) {
      chosen = consume_choice(lk, static_cast<int>(opts.size()));
    }
    const int nxt = opts[static_cast<std::size_t>(chosen)];
    if (nxt == current_) return;
    if (self_runnable && !yielding) ++preemptions_;
    switch_to(lk, nxt);
  }

  void push_others(std::vector<int>& opts) {
    // Round-robin order starting after the current thread, for fairness in
    // the default (option-0) schedule.
    const int n = static_cast<int>(threads_.size());
    for (int d = 1; d <= n; ++d) {
      const int t = (current_ + d) % n;
      if (t != current_ && threads_[t]->status == ThreadState::RUNNABLE) {
        opts.push_back(t);
      }
    }
  }

  int consume_choice(std::unique_lock<std::mutex>&, int num) {
    int c = 0;
    if (prefix_pos_ < prefix_.size()) {
      c = prefix_[prefix_pos_].chosen;
      // A recorded num of 0 marks a parsed replay string (count unknown).
      if (prefix_[prefix_pos_].num != 0 && prefix_[prefix_pos_].num != num) {
        fail_locked("internal: nondeterministic replay (choice arity changed)");
      }
      ++prefix_pos_;
      if (c >= num) c = num - 1;
    }
    choices_.push_back({c, num});
    return c;
  }

  void switch_to(std::unique_lock<std::mutex>& lk, int nxt) {
    const int self = current_;
    current_ = nxt;
    threads_[nxt]->cv.notify_one();
    threads_[self]->cv.wait(lk, [&] { return aborting_ || current_ == self; });
    if (aborting_) throw AbortExecution{};
  }

  [[noreturn]] void fail_locked(const std::string& msg) {
    if (!failed_) {
      failed_ = true;
      fail_msg_ = msg;
    }
    aborting_ = true;
    for (auto& t : threads_) t->cv.notify_all();
    done_cv_.notify_all();
    throw AbortExecution{};
  }

  // read_rel: release view of the store an RMW read (release-sequence
  // continuation); null for plain stores.
  void do_store(AtomicObj& o, std::uint64_t v, std::memory_order mo,
                const std::shared_ptr<const View>* read_rel) {
    ThreadState& self = *threads_[current_];
    detail::StoreRec rec;
    rec.value = v;
    const std::uint32_t new_idx = static_cast<std::uint32_t>(o.stores.size());
    if (self.view[o.id] < new_idx) self.view[o.id] = new_idx;
    std::shared_ptr<const View> base;
    if (detail::mo_release(mo)) {
      base = std::make_shared<const View>(self.view);
    } else if (self.fence_rel) {
      // Relaxed store after a release fence publishes the fence's view.
      View merged = *self.fence_rel;
      if (merged.size() <= static_cast<std::size_t>(o.id)) {
        merged.resize(o.id + 1, 0);
      }
      if (merged[o.id] < new_idx) merged[o.id] = new_idx;
      base = std::make_shared<const View>(std::move(merged));
    }
    if (read_rel && *read_rel) {
      View merged = base ? *base : View{};
      view_join(merged, **read_rel);
      base = std::make_shared<const View>(std::move(merged));
    }
    rec.rel = std::move(base);
    o.stores.push_back(std::move(rec));
    latest_idx_[o.id] = static_cast<std::uint32_t>(o.stores.size() - 1);
  }

  void note(int tid, const char* op, int obj, std::uint64_t a, std::uint64_t b,
            const char* mo) {
    trace_.push_back({tid, op, obj, a, b, mo});
  }

  int spawn_locked(std::unique_lock<std::mutex>&, std::function<void()> body,
                   int parent) {
    const int id = static_cast<int>(threads_.size());
    auto ts = std::make_unique<ThreadState>();
    ts->id = id;
    ts->body = std::move(body);
    if (parent >= 0) ts->view = threads_[parent]->view;  // spawn edge
    ThreadState* raw = ts.get();
    threads_.push_back(std::move(ts));
    ++live_os_;
    raw->os = std::thread([this, raw] { thread_main(*raw); });
    return id;
  }

  void thread_main(ThreadState& self) {
    {
      std::unique_lock<std::mutex> lk(m_);
      self.cv.wait(lk, [&] { return aborting_ || current_ == self.id; });
    }
    if (!aborting_) {
      // Pin a dense ccds::thread_id before user code runs so registry slot
      // assignment is a deterministic function of the schedule.
      (void)ccds::thread_id();
      try {
        self.body();
      } catch (const AbortExecution&) {
      } catch (const std::exception& e) {
        std::unique_lock<std::mutex> lk(m_);
        if (!aborting_) {
          try {
            fail_locked(std::string("uncaught exception in model thread: ") +
                        e.what());
          } catch (const AbortExecution&) {
          }
        }
      } catch (...) {
        std::unique_lock<std::mutex> lk(m_);
        if (!aborting_) {
          try {
            fail_locked("uncaught exception in model thread");
          } catch (const AbortExecution&) {
          }
        }
      }
    }
    std::unique_lock<std::mutex> lk(m_);
    self.status = ThreadState::FINISHED;
    for (auto& t : threads_) {
      if (t->status == ThreadState::BLOCKED_JOIN && t->wait_target == self.id) {
        t->status = ThreadState::RUNNABLE;
      }
    }
    if (!aborting_) {
      bool all_done = true;
      for (auto& t : threads_) {
        if (t->status != ThreadState::FINISHED) all_done = false;
      }
      if (all_done) {
        done_ = true;
      } else if (current_ == self.id) {
        // Hand the token onward without waiting for it back.
        try {
          std::vector<int> opts;
          push_others(opts);
          if (opts.empty()) {
            fail_locked("deadlock: all remaining threads blocked");
          }
          int chosen = 0;
          if (opts.size() > 1) {
            chosen = consume_choice(lk, static_cast<int>(opts.size()));
          }
          current_ = opts[static_cast<std::size_t>(chosen)];
          threads_[current_]->cv.notify_one();
        } catch (const AbortExecution&) {
        }
      }
    }
    if (--live_os_ == 0) done_cv_.notify_all();
  }

  const Options& opt_;
  const std::vector<detail::ChoiceRec>& prefix_;
  std::size_t prefix_pos_ = 0;

  std::mutex m_;
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
  int current_ = -1;
  long live_os_ = 0;
  bool done_ = false;
  bool aborting_ = false;
  bool failed_ = false;
  std::string fail_msg_;

  long steps_ = 0;
  int preemptions_ = 0;
  int stale_branches_ = 0;
  int next_obj_id_ = 0;
  // Latest store index per object id (survives node destruction, unlike the
  // AtomicObj itself, so heavy_fence() never chases freed objects).
  std::vector<std::uint32_t> latest_idx_;
  // Join of the views of every seq_cst fence executed so far.
  View sc_fence_view_;

  std::vector<detail::ChoiceRec> choices_;
  std::vector<detail::TraceRec> trace_;
};

// ---------------------------------------------------------------------------
// Explorer driver: depth-first search over recorded choice points.
// ---------------------------------------------------------------------------
inline Result explore(const Options& opt, const std::function<void()>& fn) {
  Result res;
  std::vector<detail::ChoiceRec> prefix;
  const bool replay_mode = !opt.replay.empty();
  if (replay_mode) {
    std::istringstream is(opt.replay);
    int c;
    while (is >> c) prefix.push_back({c, 0});  // num 0: arity unchecked
  }
  for (;;) {
    ExecutionContext ctx(opt, prefix);
    active_context() = &ctx;
    ctx.run(fn);
    active_context() = nullptr;
    ++res.executions;
    if (ctx.failed()) {
      res.ok = false;
      res.error = ctx.fail_msg();
      res.schedule = ctx.schedule_string();
      res.trace = ctx.trace_string();
      return res;
    }
    if (replay_mode) return res;
    // Backtrack: deepest choice point with an untried alternative.  Every
    // recorded alternative is legal (preemption and staleness budgets are
    // enforced at recording time), so this is a plain odometer.
    auto& ch = ctx.choices();
    while (!ch.empty() && ch.back().chosen + 1 >= ch.back().num) ch.pop_back();
    if (ch.empty()) {
      res.exhausted = true;
      return res;
    }
    ch.back().chosen += 1;
    prefix = std::move(ch);
    if (res.executions >= opt.max_executions) return res;
  }
}

// Record a model-checker failure from user invariant code.
[[noreturn]] inline void fail_assert(const char* expr, const char* file,
                                     int line) {
  ExecutionContext* ctx = active_context();
  std::ostringstream os;
  os << "CCDS_MODEL_ASSERT failed: " << expr << " at " << file << ':' << line;
  if (ctx != nullptr) ctx->fail(os.str());
  // Outside an execution: fall back to a hard abort.
  std::fprintf(stderr, "%s\n", os.str().c_str());
  std::abort();
}

// Spin-loop hint (wired into ccds::spin_wait under CCDS_MODEL): a voluntary
// reschedule that hands the token to another runnable thread for free.
inline void yield_hint() {
  ExecutionContext* ctx = active_context();
  if (ctx == nullptr) {
    std::this_thread::yield();
    return;
  }
  ctx->yield();
}

}  // namespace ccds::model

#define CCDS_MODEL_ASSERT(expr)                                   \
  do {                                                            \
    if (!(expr)) {                                                \
      ::ccds::model::fail_assert(#expr, __FILE__, __LINE__);      \
    }                                                             \
  } while (0)
