/**
 * @file
 * Long-running compute kernels standing in for the SPEC CPU 2006 subset
 * the paper runs under Wasm (Fig 3).
 *
 * We cannot ship SPEC sources, so each benchmark is replaced by a
 * miniature analogue with the same computational character — the same
 * reason the paper chose it: 401.bzip2 is block-sorting compression,
 * 429.mcf is pointer-chasing network optimization, 445.gobmk is a
 * big-code board evaluator (the icache-pressure outlier of §6.1), and
 * so on. What Fig 3 measures is the interaction between each kernel's
 * memory-access density and the isolation backend's per-access cost,
 * and that density is the property the analogues preserve.
 */

#ifndef HFI_WORKLOADS_SPEC_LIKE_H
#define HFI_WORKLOADS_SPEC_LIKE_H

#include "workloads/support.h"

namespace hfi::workloads::spec
{

/** The Fig 3 benchmark set (11 kernels). */
const std::vector<Workload> &suite();

} // namespace hfi::workloads::spec

#endif // HFI_WORKLOADS_SPEC_LIKE_H
