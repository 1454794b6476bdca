/**
 * @file
 * The event taxonomy of the deterministic tracer.
 *
 * One Event is one state transition at the hardware/OS/engine boundary:
 * a sandbox enter/exit with its MSR reason, a region-register update, a
 * context switch, a queue operation, a fault-injector decision, or a
 * robustness-machinery transition (retry, quarantine, respawn,
 * watchdog). Events are stamped on the VirtualClock — never wall time —
 * so a trace is a pure function of (configuration, seed) and two runs
 * produce byte-identical trace JSON.
 *
 * Events carry two generic 64-bit arguments whose meaning is per-type
 * (documented at each enumerator). Human-readable annotations (e.g.
 * the ExitReason name behind a SandboxExit's b argument) are *not*
 * stored per event: the instrumented layer registers a per-type label
 * resolver on the Trace (see Trace::setLabeler) and exporters call it
 * at serialization time. That keeps obs dependency-free below
 * everything it instruments, and keeps an Event at 32 bytes — half a
 * cache line, which the trace_overhead gate depends on.
 */

#ifndef HFI_OBS_EVENTS_H
#define HFI_OBS_EVENTS_H

#include <cstdint>

namespace hfi::obs
{

/** Run-time gating categories (bitmask in TraceConfig::categories). */
enum Category : std::uint32_t
{
    kCatSandbox = 1u << 0, ///< sandbox enter/exit, watchdog
    kCatHfi = 1u << 1,     ///< faults, syscall redirects, kernel xrstor
    kCatRegion = 1u << 2,  ///< region set/clear/rebind
    kCatSched = 1u << 3,   ///< context switches, signals
    kCatQueue = 1u << 4,   ///< shard-queue push/pop/steal/shed
    kCatFault = 1u << 5,   ///< injector decisions, retry/quarantine state
    /** Instruction-level hfi_enter/hfi_exit transitions. Off by default:
        in this engine every dispatch brackets them 1:1 between the
        SandboxEnter/KernelXrstor events, so at default verbosity they
        are redundant chatter in the hottest stretch of the dispatch
        path (they alone are ~1% of run time in the trace_overhead
        gate). Full-fidelity consumers opt in with kCatAll. */
    kCatHfiVerbose = 1u << 6,
    kCatAll = 0xffffffffu,
    /** What TraceConfig records unless told otherwise. */
    kCatDefault = kCatAll & ~kCatHfiVerbose,
};

enum class EventType : std::uint8_t
{
    // kCatSandbox — the serving engine's per-request envelope.
    SandboxEnter = 0, ///< a = request id, b = attempt
    SandboxExit,      ///< a = request id, b = ExitReason (labeled)
    WatchdogTimeout,  ///< a = request id, b = attempt

    // kCatHfi (HfiEnter/HfiExit: kCatHfiVerbose) — HfiContext
    // transitions.
    HfiEnter,        ///< a = isHybrid, b = switchOnExit
    HfiExit,         ///< a = handler address, b = switched banks
    HfiFault,        ///< a = ExitReason written to the MSR (labeled)
    SyscallRedirect, ///< a = exit-handler address
    KernelXrstor,    ///< a = incoming file enabled flag

    // kCatRegion — region-register file updates.
    RegionSet,    ///< a = register index
    RegionClear,  ///< a = register index (kNumRegions = clear-all)
    RegionRebind, ///< a = request id (warm-pool re-install before enter)

    // kCatSched — the modeled OS.
    ContextSwitch, ///< a = outgoing pid, b = incoming pid
    SignalDeliver, ///< a = target pid

    // kCatQueue — sharded run queues.
    QueuePush,  ///< a = request id, b = shard
    QueuePop,   ///< a = request id, b = shard
    QueueSteal, ///< a = request id, b = victim shard
    QueueShed,  ///< a = request id, b = shard

    // kCatFault — injector decisions and robustness transitions.
    FaultInject, ///< a = request id, b = FaultKind (labeled)
    Retry,       ///< a = request id, b = next attempt
    Quarantine,  ///< a = request id
    Respawn,     ///< a = pool slots respawned so far
    PoolWait,    ///< a = request id
};

constexpr unsigned kNumEventTypes =
    static_cast<unsigned>(EventType::PoolWait) + 1;

/** Category an event type is gated under. */
constexpr std::uint32_t
categoryOf(EventType type)
{
    switch (type) {
      case EventType::SandboxEnter:
      case EventType::SandboxExit:
      case EventType::WatchdogTimeout:
        return kCatSandbox;
      case EventType::HfiEnter:
      case EventType::HfiExit:
        return kCatHfiVerbose;
      case EventType::HfiFault:
      case EventType::SyscallRedirect:
      case EventType::KernelXrstor:
        return kCatHfi;
      case EventType::RegionSet:
      case EventType::RegionClear:
      case EventType::RegionRebind:
        return kCatRegion;
      case EventType::ContextSwitch:
      case EventType::SignalDeliver:
        return kCatSched;
      case EventType::QueuePush:
      case EventType::QueuePop:
      case EventType::QueueSteal:
      case EventType::QueueShed:
        return kCatQueue;
      case EventType::FaultInject:
      case EventType::Retry:
      case EventType::Quarantine:
      case EventType::Respawn:
      case EventType::PoolWait:
        return kCatFault;
    }
    return kCatAll;
}

const char *toString(EventType type);

/** One recorded transition. Exactly 32 bytes and 32-aligned, so an
    event never straddles a cache line and two fill one — the record
    hot path is a handful of stores into at most one line. */
struct alignas(32) Event
{
    double tsNs = 0; ///< virtual-clock timestamp, nanoseconds
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    EventType type = EventType::SandboxEnter;
};

static_assert(sizeof(Event) == 32, "Event is half a cache line");

} // namespace hfi::obs

#endif // HFI_OBS_EVENTS_H
