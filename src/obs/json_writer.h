/**
 * @file
 * A minimal deterministic JSON writer shared by every BENCH_*.json
 * emitter and the Chrome trace exporter.
 *
 * Before this existed each bench hand-rolled fprintf JSON with its own
 * top-level layout; serve_faults and sim_throughput disagreed on where
 * metadata lived and neither was versioned. JsonWriter gives them one
 * spelling: schemaVersion() stamps the shared "schema_version" field
 * (checked by the CI regression gate), doubles are printed through an
 * explicit caller-chosen format so output is byte-stable across runs
 * and hosts, and comma/indent bookkeeping can't be got wrong per bench.
 */

#ifndef HFI_OBS_JSON_WRITER_H
#define HFI_OBS_JSON_WRITER_H

#include <cstdint>
#include <string>
#include <vector>

namespace hfi::obs
{

/** Version of the shared BENCH_*.json / trace layouts. */
constexpr int kJsonSchemaVersion = 2;

class JsonWriter
{
  public:
    /** @p indent 2 matches the historical BENCH files; 0 = compact. */
    explicit JsonWriter(int indent = 2) : indent_(indent) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Key inside an object; follow with exactly one value/begin*. */
    JsonWriter &key(const char *k);

    JsonWriter &value(const char *s);
    JsonWriter &value(const std::string &s) { return value(s.c_str()); }
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(bool v);
    /** @p fmt is a printf double format, e.g. "%.3f" — pick one per
        field and keep it: the format is part of the byte-stability
        contract. */
    JsonWriter &value(double v, const char *fmt = "%.3f");

    /** key + value in one call. @{ */
    template <typename T>
    JsonWriter &
    field(const char *k, T v)
    {
        key(k);
        return value(v);
    }
    JsonWriter &
    field(const char *k, double v, const char *fmt)
    {
        key(k);
        return value(v, fmt);
    }
    /** @} */

    /** The shared "schema_version" field every emitter stamps. */
    JsonWriter &schemaVersion() { return field("schema_version",
                                               kJsonSchemaVersion); }

    /** The finished document (call after the last end*()). */
    const std::string &str() const { return out_; }

  private:
    void comma();
    void newlineIndent();
    void appendEscaped(const char *s);

    std::string out_;
    int indent_;
    /** true = container already holds an element (needs a comma). */
    std::vector<bool> hasElement_;
    bool pendingKey_ = false;
};

} // namespace hfi::obs

#endif // HFI_OBS_JSON_WRITER_H
