/**
 * @file
 * Umbrella header: the public surface of the HFI library.
 *
 * Pull in what you need instead when build times matter; this header
 * exists so examples and downstream quick starts can write
 * `#include "hfi.h"` and get the whole system:
 *
 *  - hfi::core    — the HFI ISA model (regions, context, checker)
 *  - hfi::vm      — virtual clock + memory-management substrate
 *  - hfi::sfi     — sandboxes, isolation backends, reclaim, multi-memory
 *  - hfi::sim     — the cycle-level core and program builder
 *  - hfi::os      — process scheduling with HFI xsave/xrstor
 *  - hfi::serve   — the multi-core sandbox serving engine
 *  - hfi::mpk     — the Intel MPK baseline
 *  - hfi::syscall — BPF/seccomp and HFI syscall interposition
 *  - hfi::swivel  — the Swivel-SFI cost model
 *  - hfi::spectre — attack gadgets and the measurement harness
 *  - hfi::faas (latency recording) / hfi::nginx / hfi::workloads —
 *    evaluation scaffolding
 */

#ifndef HFI_HFI_H
#define HFI_HFI_H

#include "core/checker.h"
#include "core/context.h"
#include "core/cost_model.h"
#include "core/region.h"

#include "vm/address_space.h"
#include "vm/mmu.h"
#include "vm/virtual_clock.h"

#include "sfi/backend.h"
#include "sfi/linear_memory.h"
#include "sfi/lru_binder.h"
#include "sfi/sandbox.h"

#include "sim/cpu_config.h"
#include "sim/functional.h"
#include "sim/kernels.h"
#include "sim/pipeline.h"
#include "sim/program.h"

#include "os/scheduler.h"

#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/request.h"
#include "serve/shard_queue.h"
#include "serve/worker.h"

#include "mpk/mpk.h"
#include "swivel/swivel.h"
#include "syscall/bpf.h"
#include "syscall/interposer.h"

#include "spectre/attacker.h"
#include "spectre/gadget.h"

#include "faas/latency.h"
#include "nginx/server.h"

#include "workloads/crypto.h"
#include "workloads/faas_workloads.h"
#include "workloads/font.h"
#include "workloads/image.h"
#include "workloads/sightglass.h"
#include "workloads/spec_like.h"
#include "workloads/support.h"

#endif // HFI_HFI_H
