/**
 * @file
 * Table 1 (§6.5): the four FaaS workloads and the one engine
 * configuration every Table 1 run uses, shared by the bench and the
 * golden test so both measure the same thing.
 *
 * The configuration models the paper's Rocket-webserver setup: one
 * core, 100 closed-loop clients (each sends its next request when its
 * response lands), and one warm guard-page instance with a 4 MiB heap
 * that handlers run in place, without scheduler dispatch or timer
 * preemption. With millisecond services the latency sits near
 * clients x mean service, the regime Table 1's numbers live in.
 */

#ifndef HFI_WORKLOADS_TABLE1_H
#define HFI_WORKLOADS_TABLE1_H

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "swivel/swivel.h"

namespace hfi::workloads
{

/** One Table 1 row. */
struct Table1Workload
{
    std::string name;
    /** Code/data profile Swivel's hardening is modeled from. */
    swivel::CodeProfile profile;
    serve::Handler handler;
    /** Requests per run (a relative magnitude knob per row). */
    unsigned requests;
};

/** XML to JSON, image classification, SHA-256 check, templated HTML. */
std::vector<Table1Workload> table1Workloads();

/** The engine configuration for one (workload, scheme) cell. */
serve::EngineConfig table1Config(const Table1Workload &workload,
                                 serve::Scheme scheme);

/** Binary size: Swivel's hardened binary, else the stock code + data. */
std::uint64_t table1BinaryBytes(const Table1Workload &workload,
                                serve::Scheme scheme);

} // namespace hfi::workloads

#endif // HFI_WORKLOADS_TABLE1_H
