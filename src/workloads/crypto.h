/**
 * @file
 * Real cryptographic primitives: SHA-256 and ChaCha20.
 *
 * These do genuine work — the host-side variants are bit-exact
 * implementations tested against published vectors. The sandboxed
 * SHA-256 reads its input through the sandbox: one 8-word loadN per
 * 64-byte block and a byte load per tail byte, then writes the digest
 * with 32 byte stores, so all of its input and output is
 * isolation-checked and cost-metered. Both SHA-256 variants share one
 * compression function. They power the Check-SHA-256 FaaS workload
 * (Table 1) and the NGINX "OpenSSL" session layer (Fig 5).
 */

#ifndef HFI_WORKLOADS_CRYPTO_H
#define HFI_WORKLOADS_CRYPTO_H

#include <array>
#include <cstdint>
#include <vector>

#include "sfi/sandbox.h"

namespace hfi::workloads::crypto
{

/** SHA-256 of @p data (host-side reference). */
std::array<std::uint8_t, 32> sha256(const std::uint8_t *data,
                                    std::size_t len);

/**
 * SHA-256 over @p len bytes at @p in_off of the sandbox memory; the
 * 32-byte digest is stored at @p out_off. Charges one compression's
 * ops per 64-byte block and one more for the padding.
 * @return FNV checksum of the digest.
 */
std::uint64_t sha256Sandboxed(sfi::Sandbox &sandbox, std::uint64_t in_off,
                              std::uint64_t len, std::uint64_t out_off);

/** One ChaCha20 block (host-side reference, RFC 8439 semantics). */
std::array<std::uint8_t, 64> chacha20Block(
    const std::array<std::uint8_t, 32> &key,
    const std::array<std::uint8_t, 12> &nonce, std::uint32_t counter);

} // namespace hfi::workloads::crypto

#endif // HFI_WORKLOADS_CRYPTO_H
