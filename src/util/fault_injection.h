#ifndef FDX_UTIL_FAULT_INJECTION_H_
#define FDX_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fdx {

/// Deterministic fault injection for exercising failure-recovery paths.
///
/// The library declares *fault points* — named places where a numerical
/// or I/O failure can plausibly occur (a glasso sweep, a factorization
/// pivot, a CSV read). A test (or an operator, via the `FDX_FAULTS`
/// environment variable) arms a subset of them; armed points then fail
/// deterministically on a chosen visit, which lets the recovery chain,
/// timeout paths, and runner error capture be tested without hunting for
/// pathological inputs.
///
/// Spec grammar (comma-separated list):
///   point         fire on every visit
///   point:*       same as above
///   point:N       fire on the N-th visit only (1-based)
///   point:N+      fire on the N-th visit and every later one
///   point:N%      fire on every N-th visit (N, 2N, 3N, ...)
///
/// Example: `FDX_FAULTS=glasso.sweep,seqlasso.column:1` makes every
/// graphical-lasso attempt diverge and the first sequential-lasso column
/// solve fail, driving a Discover() run down the full recovery chain.
///
/// When nothing is armed the per-point check is a single relaxed atomic
/// load — safe to leave compiled into release builds. Visit counters are
/// atomic, so points may be hit from worker threads.

/// Registered fault-point names (kept in one place so tests and docs
/// don't drift from the call sites).
inline constexpr char kFaultGlassoSweep[] = "glasso.sweep";
inline constexpr char kFaultUdutPivot[] = "udut.pivot";
inline constexpr char kFaultLassoSolve[] = "lasso.solve";
inline constexpr char kFaultSeqLassoColumn[] = "seqlasso.column";
inline constexpr char kFaultCsvRead[] = "csv.read";
inline constexpr char kFaultServiceAccept[] = "service.accept";
inline constexpr char kFaultServiceEnqueue[] = "service.enqueue";
/// Chunk-store I/O points. `store.decompress` fails a chunk-payload
/// decompression (no fallback exists — the error surfaces loudly);
/// `store.write` fails a chunk-file or manifest write (the append fails
/// whole and leaves the store as it was).
inline constexpr char kFaultStoreDecompress[] = "store.decompress";
inline constexpr char kFaultStoreWrite[] = "store.write";
/// Socket-level chaos points (see util/socket.cc). Short reads/writes
/// clamp one transfer to a single byte; `socket.write.eagain` reports a
/// spurious would-block to non-blocking writers; `conn.drop` makes the
/// operation behave as if the peer vanished (reset/EOF). Prefer the
/// `:N%` schedule for the sustained modes — an always-firing EAGAIN
/// never lets a writer make progress.
inline constexpr char kFaultSocketReadShort[] = "socket.read.short";
inline constexpr char kFaultSocketWriteShort[] = "socket.write.short";
inline constexpr char kFaultSocketWriteEagain[] = "socket.write.eagain";
inline constexpr char kFaultConnDrop[] = "conn.drop";

/// Arms the faults described by `spec` (see grammar above), replacing any
/// previously armed set. An empty spec disarms everything. Counters reset.
Status ArmFaults(const std::string& spec);

/// Disarms all fault points and clears their visit counters.
void DisarmFaults();

/// True when at least one fault point is armed (programmatically or via
/// the `FDX_FAULTS` environment variable, which is read lazily on the
/// first triggered-check after startup).
bool FaultsArmed();

/// Records a visit to `point` and reports whether the armed schedule says
/// this visit must fail. Always false (and counts nothing) when no faults
/// are armed.
bool FaultTriggered(const char* point);

/// Number of visits `point` has received since it was armed. 0 for
/// unarmed points (visits are only counted while armed).
uint64_t FaultVisits(const std::string& point);

/// Names of the currently armed points (for diagnostics and tests).
std::vector<std::string> ArmedFaultPoints();

/// Injects a failure at a named point: evaluates to a `return status;`
/// when the point is armed and scheduled to fire. The status expression
/// is only evaluated on the failing visit.
#define FDX_INJECT_FAULT(point, status_expr)                  \
  do {                                                        \
    if (::fdx::FaultTriggered(point)) return (status_expr);   \
  } while (false)

}  // namespace fdx

#endif  // FDX_UTIL_FAULT_INJECTION_H_
