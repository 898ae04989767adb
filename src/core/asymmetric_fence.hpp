// Asymmetric fences: folly/hazptr- and liburcu-style barrier pairing.
//
// The hazard-pointer and epoch protocols both contain a Dekker-shaped
// store-load conflict:
//
//   reader:    publish announcement      reclaimer:  unlink node
//              ~~~ StoreLoad fence ~~~               ~~~ StoreLoad fence ~~~
//              re-read source                        read announcements
//
// Classically BOTH sides pay a full fence (a seq_cst store on x86 compiles
// to mov+mfence or xchg), and the reader side executes it on EVERY protected
// read — the dominant cost of practical SMR (experiment E11).  The
// asymmetric-fence technique moves the entire cost to the rare reclaimer:
//
//   asymmetric_light()  — reader side.  With the membarrier backend, a
//       compiler-only barrier: it pins the program order of the surrounding
//       accesses in the emitted code but emits NO fence instruction.  The
//       publication store itself is memory_order_release (a plain store on
//       x86/ARM).
//
//   asymmetric_heavy()  — reclaimer side.  Forces a full memory barrier ON
//       EVERY THREAD of the process.  On Linux this is
//       membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED): the kernel IPIs every
//       CPU currently running one of our threads and executes a full barrier
//       there, so by the time the call returns each peer thread has passed a
//       point where (a) its earlier stores are visible to us and (b) our
//       earlier stores are visible to its later loads.  That is exactly the
//       pairwise guarantee the Dekker conflict needs: either the reader's
//       announcement is visible to the reclaimer's scan, or the reclaimer's
//       unlink is visible to the reader's re-read.
//
// FALLBACK (non-Linux, kernels < 4.14, seccomp-blocked membarrier): there
// is no way to fence other threads remotely, so asymmetric_heavy() can only
// issue a LOCAL seq_cst fence — and a local fence on the reclaimer alone
// cannot drain a reader's store buffer.  The Dekker store-load conflict
// needs a StoreLoad fence on BOTH sides (this is true even on TSO: the one
// reordering x86 permits is exactly store-load), so on fallback platforms
// asymmetric_light() issues a real seq_cst fence too and the pair DEGRADES
// TO THE CLASSIC SYMMETRIC PROTOCOL.  Correctness never depends on which
// backend is live — only the read-side speedup does.  Both halves branch on
// the same one-time detection, and asymmetric_light_is_fence() exposes the
// coupling so tests can assert the unsound combination (compiler-only light
// + local-only heavy) can never ship.
//
// Under -DCCDS_MODEL=1 both calls route into the model checker:
// asymmetric_heavy() is a schedule point that acts as a seq_cst fence on
// behalf of ALL model threads (every store already executed becomes
// mandatory reading for everyone — the operational meaning of "each CPU ran
// smp_mb()"), so ccds-verify explores the protocol with its real semantics
// and catches a reclaimer that wrongly uses the light barrier
// (tests/model/test_model_reclaim.cpp).
//
// THE PROTOCOL, ONCE PER BUILD.  The hazard, epoch and QSBR domains run
// their Dekker through the three helpers at the end of this header and
// never choose an arm themselves; the build does.  By default:
// dekker_publish() is a release store plus asymmetric_light(),
// dekker_load() an acquire load, and dekker_sweep_barrier()
// asymmetric_heavy().  Under CCDS_TSAN_SOUND they are the classic
// symmetric protocol: a seq_cst store, a seq_cst load and no barrier.
// E11's before/after is therefore an A/B of two builds of one commit.
#pragma once

#include <atomic>

#include "core/arch.hpp"
#include "core/atomic.hpp"

#if !defined(CCDS_MODEL) && defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

// TSAN SOUNDNESS BACKSTOP.  ThreadSanitizer cannot model the asymmetric
// protocol: it does not instrument the membarrier syscall, and a
// compiler-only atomic_signal_fence contributes nothing to its
// happens-before graph — so every protected read under the membarrier
// backend would be reported as a race (false positive), and worse, TSan's
// instrumentation can mask the real ordering the protocol depends on
// (false negative).  A TSan build must therefore run the classic symmetric
// seq_cst protocol: define CCDS_TSAN_SOUND (the CMake option of the same
// name does it, and -DCCDS_SANITIZE_THREAD=ON forces it on).  This is a
// hard error, not a silent downgrade, so a hand-rolled
// `g++ -fsanitize=thread` invocation cannot ship an unsound binary.
#if defined(CCDS_TSAN) && !defined(CCDS_TSAN_SOUND) && !defined(CCDS_MODEL)
#error \
    "ThreadSanitizer build without CCDS_TSAN_SOUND: TSan cannot model " \
    "asymmetric membarrier fences. Configure with -DCCDS_TSAN_SOUND=ON " \
    "(CMake does this automatically for -DCCDS_SANITIZE_THREAD=ON) or " \
    "define CCDS_TSAN_SOUND=1 to force the symmetric seq_cst protocol."
#endif

namespace ccds {

#if !defined(CCDS_MODEL) && defined(__linux__)
namespace detail {

// Command values from <linux/membarrier.h>, spelled out so the header is
// not required at build time (the ABI is fixed).
inline constexpr int kMembarrierCmdQuery = 0;
inline constexpr int kMembarrierCmdPrivateExpedited = 1 << 3;
inline constexpr int kMembarrierCmdRegisterPrivateExpedited = 1 << 4;

inline long membarrier_call(int cmd) noexcept {
#ifdef __NR_membarrier
  return syscall(__NR_membarrier, cmd, 0, 0);
#else
  (void)cmd;
  return -1;
#endif
}

// One-time runtime detection + registration.  PRIVATE_EXPEDITED requires a
// per-process REGISTER before first use (EPERM otherwise); both the query
// and the registration happen exactly once, in a magic static, so the first
// asymmetric_heavy() from any thread performs them and every later call is
// a single predictable branch.
// always_inline, like asymmetric_light() below: its fast path is the one
// predictable branch every light barrier pays.
[[gnu::always_inline]]
inline bool membarrier_private_expedited_ready() noexcept {
  static const bool ready = [] {
    const long cmds = membarrier_call(kMembarrierCmdQuery);
    if (cmds < 0) return false;
    if ((cmds & kMembarrierCmdPrivateExpedited) == 0 ||
        (cmds & kMembarrierCmdRegisterPrivateExpedited) == 0) {
      return false;
    }
    return membarrier_call(kMembarrierCmdRegisterPrivateExpedited) == 0;
  }();
  return ready;
}

}  // namespace detail
#endif  // !CCDS_MODEL && __linux__

// Reader-side half of the asymmetric pair.  With the membarrier backend, a
// compiler barrier only — zero instructions; its entire job is to forbid
// the compiler from sinking the announcement store below the validating
// load (the CPU-level reordering is the reclaimer's heavy barrier's
// problem).  When asymmetric_heavy() can only fence locally, this must be a
// real seq_cst fence: the symmetric protocol requires a StoreLoad fence on
// both sides, and a compiler barrier here would reopen the missed-hazard
// use-after-free (see FALLBACK in the header comment).  The branch resolves
// off the same cached one-time detection as the heavy side, so the fast
// path costs one predictable compare.  Under the model checker the
// instrumented shim already executes operations strictly in program order
// and heavy_fence() models membarrier for all threads, so this is a true
// no-op there.  always_inline: a call would cost more than the barrier it
// stands for (reclaim/hazard.hpp's protect() has the measurement).
[[gnu::always_inline]] inline void asymmetric_light() noexcept {
#if defined(CCDS_MODEL)
  // no-op: the model's heavy_fence() carries the protocol's ordering.
#elif defined(CCDS_TSAN_SOUND)
  // Symmetric protocol, unconditionally: a real fence TSan can see.
  std::atomic_thread_fence(std::memory_order_seq_cst);
#elif defined(__linux__)
  if (detail::membarrier_private_expedited_ready()) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  } else {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// True when asymmetric_light() issues a real fence — i.e. the pair is
// running the symmetric fallback because asymmetric_heavy() can only fence
// locally.  Tests assert this stays coupled to asymmetric_heavy_backend():
// kMembarrier must imply compiler-only light, kSeqCstFence must imply a
// fencing light.
inline bool asymmetric_light_is_fence() noexcept {
#if defined(CCDS_MODEL)
  return false;
#elif defined(CCDS_TSAN_SOUND)
  return true;
#elif defined(__linux__)
  return !detail::membarrier_private_expedited_ready();
#else
  return true;
#endif
}

// Which implementation asymmetric_heavy() resolves to at runtime — surfaced
// so tests can assert the fast path is actually exercised on Linux CI and
// the benchmark JSON records what was measured (bench/bench_util.hpp).
enum class AsymmetricHeavyBackend { kMembarrier, kSeqCstFence, kModel };

inline AsymmetricHeavyBackend asymmetric_heavy_backend() noexcept {
#if defined(CCDS_MODEL)
  return AsymmetricHeavyBackend::kModel;
#elif defined(CCDS_TSAN_SOUND)
  return AsymmetricHeavyBackend::kSeqCstFence;
#elif defined(__linux__)
  return detail::membarrier_private_expedited_ready()
             ? AsymmetricHeavyBackend::kMembarrier
             : AsymmetricHeavyBackend::kSeqCstFence;
#else
  return AsymmetricHeavyBackend::kSeqCstFence;
#endif
}

// Reclaimer-side half: a full barrier on behalf of every thread in the
// process.  Expensive (an IPI broadcast, microseconds) and intended to be
// amortized over an O(threshold) batch of retirements — never call it on a
// per-operation path.
inline void asymmetric_heavy() noexcept {
#if defined(CCDS_MODEL)
  model::heavy_fence();
#else
#if defined(__linux__) && !defined(CCDS_TSAN_SOUND)
  if (detail::membarrier_private_expedited_ready()) {
    if (detail::membarrier_call(detail::kMembarrierCmdPrivateExpedited) == 0) {
      return;
    }
  }
#endif
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

// The reclaimers' Dekker, one arm per build (header comment).  The reader
// side is always_inline for the reason asymmetric_light() is: hazard's
// protect() publishes and validates on every list hop.

// The reader's publication: a hazard slot or an epoch announcement.
template <typename Atom, typename T>
[[gnu::always_inline]] inline void dekker_publish(Atom& slot, T value) {
#if defined(CCDS_TSAN_SOUND)
  // asymmetric: OFF in this build — the classic publication pays the full
  // fence itself, so it is sweep-visible before the validating re-read.
  slot.store(value, std::memory_order_seq_cst);
#else
  // release + light barrier: a plain store where membarrier backs
  // dekker_sweep_barrier(); a full fence on fallback platforms.
  slot.store(value, std::memory_order_release);
  asymmetric_light();
#endif
}

// The reader's validating re-read and the reclaimer's sweep loads.  With
// the sweep barrier, acquire suffices: if either side reads a stale value,
// the other side's store preceded the barrier.  The classic protocol pairs
// seq_cst loads with its seq_cst publication instead.
template <typename Atom>
[[gnu::always_inline]] inline auto dekker_load(const Atom& src) {
#if defined(CCDS_TSAN_SOUND)
  return src.load(std::memory_order_seq_cst);
#else
  return src.load(std::memory_order_acquire);
#endif
}

// The reclaimer's side, once before each sweep of the published slots: the
// heavy barrier that pays for every publication's elided fence.  The
// classic protocol needs none; its publications are fenced.
[[gnu::always_inline]] inline void dekker_sweep_barrier() {
#if !defined(CCDS_TSAN_SOUND)
  asymmetric_heavy();
#endif
}

}  // namespace ccds
