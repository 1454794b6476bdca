#include "workloads/table1.h"

#include <array>
#include <memory>
#include <mutex>
#include <optional>

#include "workloads/crypto.h"
#include "workloads/faas_workloads.h"
#include "workloads/image.h"

namespace hfi::workloads
{

namespace
{

/** crypto::sha256 of the SHA handler's payload, memoized by seed & 0xff. */
class ReferenceDigests
{
  public:
    using Digest = std::array<std::uint8_t, 32>;

    /** The digest of @p payload, the payload drawn for @p seed. */
    Digest
    get(std::uint32_t seed, const std::vector<std::uint8_t> &payload)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        std::optional<Digest> &slot = byLowByte[seed & 0xff];
        if (!slot)
            slot = crypto::sha256(payload.data(), payload.size());
        return *slot;
    }

  private:
    std::mutex mutex;
    std::array<std::optional<Digest>, 256> byLowByte{};
};

} // namespace

std::vector<Table1Workload>
table1Workloads()
{
    std::vector<Table1Workload> list;

    list.push_back(
        {"XML to JSON", swivel::xmlToJsonProfile(),
         [](sfi::Sandbox &s, std::uint32_t seed) {
             const std::string xml = faas::makeXmlDocument(220, seed);
             s.memory().writeBytes(64, xml.data(), xml.size());
             faas::xmlToJson(s, 64, xml.size());
         },
         300});

    list.push_back(
        {"Image classification", swivel::imageClassifyProfile(),
         [](sfi::Sandbox &s, std::uint32_t seed) {
             const auto img = image::makeTestImage(96, 96, seed);
             s.memory().writeBytes(64, img.data(), img.size());
             faas::classifyImage(s, 64, 96, seed);
         },
         200});

    // The payload byte i is uint8(i ^ seed), a function of seed's low
    // byte alone, so the host-side reference digest is computed once per
    // low byte and shared by every run of this list's handler.
    auto digests = std::make_shared<ReferenceDigests>();
    list.push_back(
        {"Check SHA-256", swivel::checkShaProfile(),
         [digests](sfi::Sandbox &s, std::uint32_t seed) {
             std::vector<std::uint8_t> payload(96 * 1024);
             for (std::size_t i = 0; i < payload.size(); ++i)
                 payload[i] = static_cast<std::uint8_t>(i ^ seed);
             s.memory().writeBytes(64, payload.data(), payload.size());
             const auto digest = digests->get(seed, payload);
             s.memory().writeBytes(1 << 20, digest.data(), 32);
             faas::checkSha256(s, 64, payload.size(), 1 << 20);
         },
         300});

    list.push_back(
        {"Templated HTML", swivel::templatedHtmlProfile(),
         [](sfi::Sandbox &s, std::uint32_t seed) {
             const std::string tpl = faas::makeHtmlTemplate(0);
             s.memory().writeBytes(64, tpl.data(), tpl.size());
             faas::renderTemplate(s, 64, tpl.size(), 24, seed);
         },
         400});

    return list;
}

serve::EngineConfig
table1Config(const Table1Workload &workload, serve::Scheme scheme)
{
    serve::EngineConfig ec;
    ec.workers = 1;
    ec.mode = serve::LoadMode::ClosedLoop;
    ec.clients = 100;
    ec.requests = workload.requests;
    ec.worker.scheme = scheme;
    if (scheme == serve::Scheme::Swivel)
        ec.worker.swivelEffect = swivel::apply(workload.profile);
    ec.worker.dispatchViaScheduler = false;
    ec.worker.quantumNs = 0;
    ec.worker.backend = sfi::BackendKind::GuardPages;
    ec.worker.sandboxOptions = {64, 4096};
    ec.worker.poolSize = 1;
    return ec;
}

std::uint64_t
table1BinaryBytes(const Table1Workload &workload, serve::Scheme scheme)
{
    return scheme == serve::Scheme::Swivel
               ? swivel::apply(workload.profile).binaryBytes
               : workload.profile.codeBytes + workload.profile.dataBytes;
}

} // namespace hfi::workloads
