#include "train/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/file_image.h"
#include "util/logging.h"
#include "util/strings.h"

namespace layergcn::train {
namespace {

namespace fs = std::filesystem;

constexpr char kMagic[4] = {'L', 'G', 'C', 'N'};
constexpr uint32_t kVersionV2 = 2;

// v2 section tags. Unknown tags are skipped on load.
enum SectionTag : uint32_t {
  kTagMeta = 1,
  kTagRng = 2,
  kTagParamValues = 3,
  kTagAdamM = 4,
  kTagAdamV = 5,
  kTagBestSnapshot = 6,
  kTagHistory = 7,
  kTagServeHistory = 8,
  kTagServeMeta = 9,
  kTagServeInt8 = 10,
  kTagServeBf16 = 11,
};

constexpr uint32_t kMetaStateVersion = 1;
constexpr uint32_t kServeMetaVersion = 1;
constexpr uint32_t kServeQuantVersion = 1;

// The quantized serving sections are optional accelerations of the always-
// present f32 reference: damage inside one of them must not fail the whole
// snapshot load, only drop the quantized copy (the caller falls back to
// f32 and counts serve.snapshot_fallbacks).
inline bool IsServeQuantTag(uint32_t tag) {
  return tag == kTagServeInt8 || tag == kTagServeBf16;
}

// Value-table names of the serving-export embedding blocks.
constexpr char kServeUserEmbName[] = "serve.user_emb";
constexpr char kServeItemEmbName[] = "serve.item_emb";

// ---------------------------------------------------------------------------
// Buffer writers.

template <typename T>
void AppendPod(std::string* buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void AppendBytes(std::string* buf, const void* p, size_t n) {
  buf->append(static_cast<const char*>(p), n);
}

void AppendNamedMatrix(std::string* buf, const std::string& name,
                       const tensor::Matrix& m) {
  AppendPod(buf, static_cast<uint32_t>(name.size()));
  AppendBytes(buf, name.data(), name.size());
  AppendPod(buf, m.rows());
  AppendPod(buf, m.cols());
  AppendBytes(buf, m.data(),
              static_cast<size_t>(m.size()) * sizeof(float));
}

// Table of named matrices: uint32 count, then each entry.
std::string MatrixTablePayload(
    const std::vector<std::pair<std::string, const tensor::Matrix*>>& table) {
  std::string payload;
  AppendPod(&payload, static_cast<uint32_t>(table.size()));
  for (const auto& [name, m] : table) AppendNamedMatrix(&payload, name, *m);
  return payload;
}

void AppendSection(std::string* out, uint32_t tag,
                   const std::string& payload) {
  AppendPod(out, tag);
  AppendPod(out, static_cast<uint64_t>(payload.size()));
  out->append(payload);
  AppendPod(out, util::Crc32(payload.data(), payload.size()));
}

// ---------------------------------------------------------------------------
// Buffer reader with explicit bounds checks.

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

  bool ReadBytes(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(out, sizeof(T));
  }

  bool ReadString(size_t n, std::string* out) {
    if (remaining() < n) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool Skip(size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

  const char* cursor() const { return data_ + pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

using MatrixTable = std::map<std::string, tensor::Matrix>;

util::Status ParseMatrixTable(const std::string& path, const char* what,
                              ByteReader* in, MatrixTable* out) {
  uint32_t count = 0;
  if (!in->ReadPod(&count)) {
    return util::DataLossError(path + ": truncated " + what + " table");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    std::string name;
    if (!in->ReadPod(&name_len) || !in->ReadString(name_len, &name)) {
      return util::DataLossError(path + ": truncated " + what +
                                 " entry name");
    }
    int64_t rows = 0, cols = 0;
    if (!in->ReadPod(&rows) || !in->ReadPod(&cols)) {
      return util::DataLossError(path + ": truncated " + what +
                                 " entry header for '" + name + "'");
    }
    if (rows < 0 || cols < 0 ||
        (cols > 0 && rows > static_cast<int64_t>(in->remaining() /
                                                 (sizeof(float) *
                                                  static_cast<size_t>(cols))))) {
      return util::DataLossError(path + ": implausible shape " +
                                 std::to_string(rows) + "x" +
                                 std::to_string(cols) + " for '" + name +
                                 "' in " + what + " table");
    }
    tensor::Matrix m(rows, cols);
    if (!in->ReadBytes(m.data(),
                       static_cast<size_t>(m.size()) * sizeof(float))) {
      return util::DataLossError(path + ": truncated " + what +
                                 " payload for '" + name + "'");
    }
    if (!out->emplace(std::move(name), std::move(m)).second) {
      return util::DataLossError(path + ": duplicate parameter name in " +
                                 what + " table");
    }
  }
  return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Whole-file image read, with the read-side fault points applied to the
// in-memory copy so corruption is indistinguishable from real disk damage.

util::Status ReadFileImage(const std::string& path, std::string* out) {
  std::string buf;
  LAYERGCN_RETURN_IF_ERROR(util::ReadFileImage(path, &buf));
  if (util::fault::Fire("checkpoint.short_read") && !buf.empty()) {
    buf.resize(buf.size() - buf.size() / 3 - 1);
  }
  if (util::fault::Fire("checkpoint.bit_flip") && !buf.empty()) {
    buf[buf.size() / 2] = static_cast<char>(buf[buf.size() / 2] ^ 0x10);
  }
  // Serve-side fault points: a flipped bit in a snapshot image and a torn
  // read during hot-swap reload. They live here because every snapshot
  // load goes through this reader, so injected damage is indistinguishable
  // from real disk damage.
  if (util::fault::Fire("serve.snapshot_bit_flip") && !buf.empty()) {
    buf[buf.size() / 3] = static_cast<char>(buf[buf.size() / 3] ^ 0x04);
  }
  if (util::fault::Fire("serve.reload_torn_read") && !buf.empty()) {
    buf.resize(buf.size() / 2);
  }
  *out = std::move(buf);
  return util::OkStatus();
}

// ---------------------------------------------------------------------------
// Serialization.

std::vector<std::pair<std::string, const tensor::Matrix*>> ValueTable(
    const std::vector<Parameter*>& params,
    tensor::Matrix Parameter::*field) {
  std::vector<std::pair<std::string, const tensor::Matrix*>> table;
  table.reserve(params.size());
  for (const Parameter* p : params) table.emplace_back(p->name, &(p->*field));
  return table;
}

std::string SerializeV2(const std::vector<Parameter*>& params,
                        const TrainingState* state) {
  // Section count first: params + both moment tables, plus the state
  // sections when present.
  uint32_t sections = 3;
  if (state != nullptr) {
    sections += 2;  // meta + history
    if (state->has_rng) ++sections;
    if (!state->best_snapshot.empty()) ++sections;
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(&out, kVersionV2);
  AppendPod(&out, sections);

  if (state != nullptr) {
    std::string meta;
    AppendPod(&meta, kMetaStateVersion);
    AppendPod(&meta, state->epoch);
    AppendPod(&meta, state->best_epoch);
    AppendPod(&meta, state->best_valid_score);
    AppendPod(&meta, state->epochs_since_best);
    AppendPod(&meta, state->optimizer_steps);
    AppendPod(&meta, state->seed);
    AppendPod(&meta, state->sampler_cursor);
    AppendSection(&out, kTagMeta, meta);

    if (state->has_rng) {
      std::string rng;
      for (uint64_t s : state->rng.s) AppendPod(&rng, s);
      AppendPod(&rng, state->rng.spare_bits);
      AppendPod(&rng, state->rng.has_spare);
      AppendSection(&out, kTagRng, rng);
    }
  }

  AppendSection(&out, kTagParamValues,
                MatrixTablePayload(ValueTable(params, &Parameter::value)));
  AppendSection(&out, kTagAdamM,
                MatrixTablePayload(ValueTable(params, &Parameter::adam_m)));
  AppendSection(&out, kTagAdamV,
                MatrixTablePayload(ValueTable(params, &Parameter::adam_v)));

  if (state != nullptr) {
    if (!state->best_snapshot.empty()) {
      std::vector<std::pair<std::string, const tensor::Matrix*>> best;
      best.reserve(state->best_snapshot.size());
      for (const auto& [name, m] : state->best_snapshot) {
        best.emplace_back(name, &m);
      }
      AppendSection(&out, kTagBestSnapshot, MatrixTablePayload(best));
    }

    std::string history;
    AppendPod(&history, static_cast<uint64_t>(state->epoch_losses.size()));
    for (double loss : state->epoch_losses) AppendPod(&history, loss);
    AppendPod(&history, static_cast<uint64_t>(state->valid_curve.size()));
    for (const auto& [epoch, score] : state->valid_curve) {
      AppendPod(&history, epoch);
      AppendPod(&history, score);
    }
    AppendSection(&out, kTagHistory, history);
  }
  return out;
}

// Fully parsed v2 file, staged before anything is applied to parameters so
// corruption can never leave a half-restored model.
struct ParsedCheckpoint {
  MatrixTable values;
  MatrixTable adam_m;
  MatrixTable adam_v;
  MatrixTable best_snapshot;
  bool has_best_snapshot = false;
  bool has_meta = false;
  TrainingState state;

  // Serving-export sections (absent in training checkpoints).
  bool has_serve_meta = false;
  int64_t serve_version = 0;
  int64_t serve_num_users = 0;
  int64_t serve_num_items = 0;
  int64_t serve_dim = 0;
  bool has_serve_history = false;
  std::vector<std::vector<int32_t>> serve_history;
  bool has_serve_int8 = false;
  tensor::Int8Rows serve_user_int8, serve_item_int8;
  bool has_serve_bf16 = false;
  tensor::Bf16Rows serve_user_bf16, serve_item_bf16;
  bool serve_quant_dropped = false;
};

util::Status ParseMeta(const std::string& path, ByteReader* in,
                       TrainingState* state) {
  uint32_t state_version = 0;
  if (!in->ReadPod(&state_version)) {
    return util::DataLossError(path + ": truncated meta section");
  }
  if (state_version != kMetaStateVersion) {
    return util::DataLossError(path + ": unsupported meta state version " +
                               std::to_string(state_version));
  }
  if (!in->ReadPod(&state->epoch) || !in->ReadPod(&state->best_epoch) ||
      !in->ReadPod(&state->best_valid_score) ||
      !in->ReadPod(&state->epochs_since_best) ||
      !in->ReadPod(&state->optimizer_steps) || !in->ReadPod(&state->seed) ||
      !in->ReadPod(&state->sampler_cursor)) {
    return util::DataLossError(path + ": truncated meta section");
  }
  return util::OkStatus();
}

util::Status ParseRng(const std::string& path, ByteReader* in,
                      TrainingState* state) {
  for (uint64_t& s : state->rng.s) {
    if (!in->ReadPod(&s)) {
      return util::DataLossError(path + ": truncated rng section");
    }
  }
  if (!in->ReadPod(&state->rng.spare_bits) ||
      !in->ReadPod(&state->rng.has_spare)) {
    return util::DataLossError(path + ": truncated rng section");
  }
  state->has_rng = true;
  return util::OkStatus();
}

util::Status ParseHistory(const std::string& path, ByteReader* in,
                          TrainingState* state) {
  uint64_t n = 0;
  if (!in->ReadPod(&n) || n > in->remaining() / sizeof(double)) {
    return util::DataLossError(path + ": truncated history section");
  }
  state->epoch_losses.resize(n);
  for (double& loss : state->epoch_losses) {
    if (!in->ReadPod(&loss)) {
      return util::DataLossError(path + ": truncated history losses");
    }
  }
  uint64_t m = 0;
  if (!in->ReadPod(&m) ||
      m > in->remaining() / (sizeof(int64_t) + sizeof(double))) {
    return util::DataLossError(path + ": truncated history curve");
  }
  state->valid_curve.resize(m);
  for (auto& [epoch, score] : state->valid_curve) {
    if (!in->ReadPod(&epoch) || !in->ReadPod(&score)) {
      return util::DataLossError(path + ": truncated history curve");
    }
  }
  return util::OkStatus();
}

util::Status ParseServeMeta(const std::string& path, ByteReader* in,
                            ParsedCheckpoint* parsed) {
  uint32_t meta_version = 0;
  if (!in->ReadPod(&meta_version)) {
    return util::DataLossError(path + ": truncated serve meta section");
  }
  if (meta_version != kServeMetaVersion) {
    return util::DataLossError(path + ": unsupported serve meta version " +
                               std::to_string(meta_version));
  }
  if (!in->ReadPod(&parsed->serve_version) ||
      !in->ReadPod(&parsed->serve_num_users) ||
      !in->ReadPod(&parsed->serve_num_items) ||
      !in->ReadPod(&parsed->serve_dim)) {
    return util::DataLossError(path + ": truncated serve meta section");
  }
  parsed->has_serve_meta = true;
  return util::OkStatus();
}

util::Status ParseServeHistory(const std::string& path, ByteReader* in,
                               ParsedCheckpoint* parsed) {
  uint64_t num_users = 0;
  if (!in->ReadPod(&num_users) || num_users > in->remaining()) {
    return util::DataLossError(path + ": truncated serve history section");
  }
  parsed->serve_history.resize(num_users);
  for (uint64_t u = 0; u < num_users; ++u) {
    uint64_t len = 0;
    if (!in->ReadPod(&len) || len > in->remaining() / sizeof(int32_t)) {
      return util::DataLossError(path + ": truncated serve history list " +
                                 std::to_string(u));
    }
    std::vector<int32_t>& items = parsed->serve_history[u];
    items.resize(len);
    if (len > 0 &&
        !in->ReadBytes(items.data(), len * sizeof(int32_t))) {
      return util::DataLossError(path + ": truncated serve history list " +
                                 std::to_string(u));
    }
  }
  parsed->has_serve_history = true;
  return util::OkStatus();
}

util::Status ParseInt8Block(const std::string& path, ByteReader* in,
                            tensor::Int8Rows* out) {
  int64_t rows = 0, cols = 0;
  if (!in->ReadPod(&rows) || !in->ReadPod(&cols) || rows < 0 || cols < 0 ||
      (cols > 0 &&
       rows > static_cast<int64_t>(in->remaining() /
                                   static_cast<size_t>(cols)))) {
    return util::DataLossError(path + ": truncated int8 block header");
  }
  out->rows = rows;
  out->cols = cols;
  out->scales.resize(static_cast<size_t>(rows));
  out->data.resize(static_cast<size_t>(rows * cols));
  if (!in->ReadBytes(out->scales.data(),
                     static_cast<size_t>(rows) * sizeof(float)) ||
      !in->ReadBytes(out->data.data(), static_cast<size_t>(rows * cols))) {
    return util::DataLossError(path + ": truncated int8 block payload");
  }
  return util::OkStatus();
}

util::Status ParseBf16Block(const std::string& path, ByteReader* in,
                            tensor::Bf16Rows* out) {
  int64_t rows = 0, cols = 0;
  if (!in->ReadPod(&rows) || !in->ReadPod(&cols) || rows < 0 || cols < 0 ||
      (cols > 0 &&
       rows > static_cast<int64_t>(in->remaining() /
                                   (sizeof(uint16_t) *
                                    static_cast<size_t>(cols))))) {
    return util::DataLossError(path + ": truncated bf16 block header");
  }
  out->rows = rows;
  out->cols = cols;
  out->data.resize(static_cast<size_t>(rows * cols));
  if (!in->ReadBytes(out->data.data(),
                     static_cast<size_t>(rows * cols) * sizeof(uint16_t))) {
    return util::DataLossError(path + ": truncated bf16 block payload");
  }
  return util::OkStatus();
}

util::Status ParseServeInt8(const std::string& path, ByteReader* in,
                            ParsedCheckpoint* parsed) {
  uint32_t quant_version = 0;
  if (!in->ReadPod(&quant_version) || quant_version != kServeQuantVersion) {
    return util::DataLossError(path + ": bad serve int8 section version");
  }
  LAYERGCN_RETURN_IF_ERROR(
      ParseInt8Block(path, in, &parsed->serve_user_int8));
  LAYERGCN_RETURN_IF_ERROR(
      ParseInt8Block(path, in, &parsed->serve_item_int8));
  parsed->has_serve_int8 = true;
  return util::OkStatus();
}

util::Status ParseServeBf16(const std::string& path, ByteReader* in,
                            ParsedCheckpoint* parsed) {
  uint32_t quant_version = 0;
  if (!in->ReadPod(&quant_version) || quant_version != kServeQuantVersion) {
    return util::DataLossError(path + ": bad serve bf16 section version");
  }
  LAYERGCN_RETURN_IF_ERROR(
      ParseBf16Block(path, in, &parsed->serve_user_bf16));
  LAYERGCN_RETURN_IF_ERROR(
      ParseBf16Block(path, in, &parsed->serve_item_bf16));
  parsed->has_serve_bf16 = true;
  return util::OkStatus();
}

util::Status ParseV2(const std::string& path, ByteReader* in,
                     uint32_t section_count, ParsedCheckpoint* parsed) {
  bool saw_values = false;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t payload_len = 0;
    if (!in->ReadPod(&tag) || !in->ReadPod(&payload_len)) {
      return util::DataLossError(path + ": truncated section header (" +
                                 std::to_string(s) + " of " +
                                 std::to_string(section_count) + ")");
    }
    if (payload_len > in->remaining()) {
      // Quantized serving sections are optional *and written last*: a tail
      // truncation that eats into them loses only the quantized copies, so
      // degrade to the f32 reference instead of rejecting the file. Damage
      // to any required section still fails the whole load.
      if (IsServeQuantTag(tag)) {
        parsed->serve_quant_dropped = true;
        break;
      }
      return util::DataLossError(path + ": section " + std::to_string(tag) +
                                 " payload exceeds file size");
    }
    const char* payload = in->cursor();
    in->Skip(static_cast<size_t>(payload_len));
    uint32_t stored_crc = 0;
    if (!in->ReadPod(&stored_crc)) {
      if (IsServeQuantTag(tag)) {
        parsed->serve_quant_dropped = true;
        break;
      }
      return util::DataLossError(path + ": section " + std::to_string(tag) +
                                 " missing CRC");
    }
    const uint32_t actual_crc =
        util::Crc32(payload, static_cast<size_t>(payload_len));
    if (actual_crc != stored_crc) {
      if (IsServeQuantTag(tag)) {
        // Drop just this quantized copy; the rest of the file is intact.
        parsed->serve_quant_dropped = true;
        continue;
      }
      return util::DataLossError(
          path + ": CRC mismatch in section " + std::to_string(tag) +
          util::StrFormat(" (stored %08x, computed %08x)", stored_crc,
                          actual_crc));
    }
    ByteReader section(payload, static_cast<size_t>(payload_len));
    switch (tag) {
      case kTagMeta:
        LAYERGCN_RETURN_IF_ERROR(ParseMeta(path, &section, &parsed->state));
        parsed->has_meta = true;
        break;
      case kTagRng:
        LAYERGCN_RETURN_IF_ERROR(ParseRng(path, &section, &parsed->state));
        break;
      case kTagParamValues:
        LAYERGCN_RETURN_IF_ERROR(
            ParseMatrixTable(path, "parameter", &section, &parsed->values));
        saw_values = true;
        break;
      case kTagAdamM:
        LAYERGCN_RETURN_IF_ERROR(
            ParseMatrixTable(path, "adam_m", &section, &parsed->adam_m));
        break;
      case kTagAdamV:
        LAYERGCN_RETURN_IF_ERROR(
            ParseMatrixTable(path, "adam_v", &section, &parsed->adam_v));
        break;
      case kTagBestSnapshot:
        LAYERGCN_RETURN_IF_ERROR(ParseMatrixTable(
            path, "best snapshot", &section, &parsed->best_snapshot));
        parsed->has_best_snapshot = true;
        break;
      case kTagHistory:
        LAYERGCN_RETURN_IF_ERROR(
            ParseHistory(path, &section, &parsed->state));
        break;
      case kTagServeHistory:
        LAYERGCN_RETURN_IF_ERROR(ParseServeHistory(path, &section, parsed));
        break;
      case kTagServeMeta:
        LAYERGCN_RETURN_IF_ERROR(ParseServeMeta(path, &section, parsed));
        break;
      case kTagServeInt8:
        // CRC passed but the body may still be malformed (e.g. written by
        // a buggy tool): a bad quant body drops the copy, not the file.
        if (!ParseServeInt8(path, &section, parsed).ok()) {
          parsed->has_serve_int8 = false;
          parsed->serve_quant_dropped = true;
        }
        break;
      case kTagServeBf16:
        if (!ParseServeBf16(path, &section, parsed).ok()) {
          parsed->has_serve_bf16 = false;
          parsed->serve_quant_dropped = true;
        }
        break;
      default:
        // Unknown section from a newer writer: the CRC already validated,
        // so skipping is safe.
        break;
    }
  }
  if (!saw_values) {
    return util::DataLossError(path + ": no parameter value section");
  }
  return util::OkStatus();
}

util::Status ParseCheckpointImage(const std::string& path,
                                  const std::string& image,
                                  ParsedCheckpoint* parsed) {
  ByteReader in(image.data(), image.size());
  char magic[4];
  if (!in.ReadBytes(magic, sizeof(magic)) ||
      !std::equal(magic, magic + 4, kMagic)) {
    return util::DataLossError(path + " is not a LayerGCN checkpoint");
  }
  uint32_t version = 0;
  if (!in.ReadPod(&version)) {
    return util::DataLossError(path + ": truncated header");
  }
  if (version != kVersionV2) {
    return util::DataLossError(path + ": unsupported checkpoint version " +
                               std::to_string(version));
  }
  uint32_t section_count = 0;
  if (!in.ReadPod(&section_count)) {
    return util::DataLossError(path + ": truncated header");
  }
  return ParseV2(path, &in, section_count, parsed);
}

// Copies `table[name]` into `dst` when present with the right shape.
// Moment tables are best-effort: a params-only consumer may pass params
// whose moments were never part of the file.
void ApplyMomentTable(const MatrixTable& table, const std::string& name,
                      tensor::Matrix* dst) {
  const auto it = table.find(name);
  if (it == table.end()) return;
  if (it->second.rows() != dst->rows() || it->second.cols() != dst->cols()) {
    return;
  }
  *dst = it->second;
}

// Atomic image write shared by checkpoints and serving exports
// (util::WriteFileImage: temp file, fsync, rename), with the torn-write
// fault applied before the safe path so tests can simulate a crash inside
// the write window.
util::Status AtomicWriteImage(const std::string& path,
                              const std::string& image) {
  if (util::fault::Fire("checkpoint.torn_write")) {
    // Simulated crash inside the write window: a prefix of the image lands
    // under the final name (as if the filesystem lost the rename barrier)
    // and the writer believes it succeeded. Readers must detect this.
    (void)util::SyncedWrite(
        path, std::string_view(image).substr(0, image.size() * 3 / 5));
    return util::OkStatus();
  }
  return util::WriteFileImage(path, image);
}

}  // namespace

util::Status SaveCheckpointV2(const std::string& path,
                              const std::vector<Parameter*>& params,
                              const TrainingState* state) {
  std::set<std::string> names;
  for (const Parameter* p : params) {
    LAYERGCN_CHECK(p != nullptr);
    if (!names.insert(p->name).second) {
      return util::InvalidArgumentError("duplicate parameter name: " +
                                        p->name);
    }
  }
  return AtomicWriteImage(path, SerializeV2(params, state));
}

util::Status SaveServingExport(const std::string& path,
                               const ServingExport& ex) {
  if (ex.user_emb.cols() != ex.item_emb.cols()) {
    return util::InvalidArgumentError(util::StrFormat(
        "serving export embedding width mismatch (user %lld, item %lld)",
        static_cast<long long>(ex.user_emb.cols()),
        static_cast<long long>(ex.item_emb.cols())));
  }
  if (static_cast<int64_t>(ex.user_history.size()) != ex.user_emb.rows()) {
    return util::InvalidArgumentError(util::StrFormat(
        "serving export history size %lld != user count %lld",
        static_cast<long long>(ex.user_history.size()),
        static_cast<long long>(ex.user_emb.rows())));
  }
  for (const std::vector<int32_t>& items : ex.user_history) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i] < 0 || items[i] >= ex.item_emb.rows()) {
        return util::InvalidArgumentError(
            "serving export history item id " + std::to_string(items[i]) +
            " out of range");
      }
      if (i > 0 && items[i] <= items[i - 1]) {
        return util::InvalidArgumentError(
            "serving export history lists must be sorted ascending and "
            "duplicate-free");
      }
    }
  }

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(&out, kVersionV2);
  // meta + values + history, plus the optional quantized copies. The quant
  // sections go LAST so a tail truncation degrades to f32 instead of
  // killing the snapshot.
  AppendPod(&out, static_cast<uint32_t>(3 + (ex.write_int8 ? 1 : 0) +
                                        (ex.write_bf16 ? 1 : 0)));

  std::string meta;
  AppendPod(&meta, kServeMetaVersion);
  AppendPod(&meta, ex.version);
  AppendPod(&meta, ex.user_emb.rows());
  AppendPod(&meta, ex.item_emb.rows());
  AppendPod(&meta, ex.user_emb.cols());
  AppendSection(&out, kTagServeMeta, meta);

  AppendSection(&out, kTagParamValues,
                MatrixTablePayload({{kServeUserEmbName, &ex.user_emb},
                                    {kServeItemEmbName, &ex.item_emb}}));

  std::string history;
  AppendPod(&history, static_cast<uint64_t>(ex.user_history.size()));
  for (const std::vector<int32_t>& items : ex.user_history) {
    AppendPod(&history, static_cast<uint64_t>(items.size()));
    AppendBytes(&history, items.data(), items.size() * sizeof(int32_t));
  }
  AppendSection(&out, kTagServeHistory, history);

  if (ex.write_int8) {
    std::string quant;
    AppendPod(&quant, kServeQuantVersion);
    for (const tensor::Matrix* m : {&ex.user_emb, &ex.item_emb}) {
      const tensor::Int8Rows q = tensor::QuantizeInt8PerRow(*m);
      AppendPod(&quant, q.rows);
      AppendPod(&quant, q.cols);
      AppendBytes(&quant, q.scales.data(), q.scales.size() * sizeof(float));
      AppendBytes(&quant, q.data.data(), q.data.size());
    }
    AppendSection(&out, kTagServeInt8, quant);
  }

  if (ex.write_bf16) {
    std::string quant;
    AppendPod(&quant, kServeQuantVersion);
    for (const tensor::Matrix* m : {&ex.user_emb, &ex.item_emb}) {
      const tensor::Bf16Rows q = tensor::ToBf16Rows(*m);
      AppendPod(&quant, q.rows);
      AppendPod(&quant, q.cols);
      AppendBytes(&quant, q.data.data(), q.data.size() * sizeof(uint16_t));
    }
    AppendSection(&out, kTagServeBf16, quant);
  }

  return AtomicWriteImage(path, out);
}

util::StatusOr<ServingExport> LoadServingExport(const std::string& path) {
  std::string image;
  LAYERGCN_RETURN_IF_ERROR(ReadFileImage(path, &image));
  ParsedCheckpoint parsed;
  LAYERGCN_RETURN_IF_ERROR(ParseCheckpointImage(path, image, &parsed));
  if (!parsed.has_serve_meta || !parsed.has_serve_history) {
    return util::DataLossError(path + " is not a serving export (serve "
                               "sections absent)");
  }
  const auto user_it = parsed.values.find(kServeUserEmbName);
  const auto item_it = parsed.values.find(kServeItemEmbName);
  if (user_it == parsed.values.end() || item_it == parsed.values.end()) {
    return util::DataLossError(path + ": serving export missing embedding "
                               "matrices");
  }
  ServingExport ex;
  ex.version = parsed.serve_version;
  ex.user_emb = std::move(user_it->second);
  ex.item_emb = std::move(item_it->second);
  ex.user_history = std::move(parsed.serve_history);
  // The meta section double-checks the payload shapes so a section-level
  // mix-up (e.g. a file assembled from two snapshots) cannot slip through.
  if (ex.user_emb.rows() != parsed.serve_num_users ||
      ex.item_emb.rows() != parsed.serve_num_items ||
      ex.user_emb.cols() != parsed.serve_dim ||
      ex.item_emb.cols() != parsed.serve_dim ||
      static_cast<int64_t>(ex.user_history.size()) != parsed.serve_num_users) {
    return util::DataLossError(path + ": serving export sections disagree "
                               "on shapes");
  }
  for (const std::vector<int32_t>& items : ex.user_history) {
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i] < 0 || items[i] >= ex.item_emb.rows() ||
          (i > 0 && items[i] <= items[i - 1])) {
        return util::DataLossError(path + ": serving export history list "
                                   "unsorted or out of range");
      }
    }
  }

  // Quantized copies ride along only when shape-consistent with the f32
  // reference; a disagreement means the section is stale or damaged, and
  // the right degradation is dropping the copy, not failing the snapshot.
  ex.quant_dropped = parsed.serve_quant_dropped;
  if (parsed.has_serve_int8) {
    if (parsed.serve_user_int8.rows == ex.user_emb.rows() &&
        parsed.serve_user_int8.cols == ex.user_emb.cols() &&
        parsed.serve_item_int8.rows == ex.item_emb.rows() &&
        parsed.serve_item_int8.cols == ex.item_emb.cols()) {
      ex.has_int8 = true;
      ex.user_int8 = std::move(parsed.serve_user_int8);
      ex.item_int8 = std::move(parsed.serve_item_int8);
    } else {
      ex.quant_dropped = true;
    }
  }
  if (parsed.has_serve_bf16) {
    if (parsed.serve_user_bf16.rows == ex.user_emb.rows() &&
        parsed.serve_user_bf16.cols == ex.user_emb.cols() &&
        parsed.serve_item_bf16.rows == ex.item_emb.rows() &&
        parsed.serve_item_bf16.cols == ex.item_emb.cols()) {
      ex.has_bf16 = true;
      ex.user_bf16 = std::move(parsed.serve_user_bf16);
      ex.item_bf16 = std::move(parsed.serve_item_bf16);
    } else {
      ex.quant_dropped = true;
    }
  }
  return ex;
}

util::StatusOr<int> LoadCheckpointV2(const std::string& path,
                                     const std::vector<Parameter*>& params,
                                     TrainingState* state) {
  std::string image;
  LAYERGCN_RETURN_IF_ERROR(ReadFileImage(path, &image));
  ParsedCheckpoint parsed;
  LAYERGCN_RETURN_IF_ERROR(ParseCheckpointImage(path, image, &parsed));

  // Validate the full match before mutating anything.
  for (const Parameter* p : params) {
    const auto it = parsed.values.find(p->name);
    if (it == parsed.values.end()) {
      return util::FailedPreconditionError(
          path + ": checkpoint missing parameter: " + p->name);
    }
    if (it->second.rows() != p->value.rows() ||
        it->second.cols() != p->value.cols()) {
      return util::FailedPreconditionError(util::StrFormat(
          "%s: shape mismatch for %s (file %lldx%lld, param %lldx%lld)",
          path.c_str(), p->name.c_str(),
          static_cast<long long>(it->second.rows()),
          static_cast<long long>(it->second.cols()),
          static_cast<long long>(p->value.rows()),
          static_cast<long long>(p->value.cols())));
    }
  }

  int restored = 0;
  for (Parameter* p : params) {
    p->value = parsed.values.at(p->name);
    ApplyMomentTable(parsed.adam_m, p->name, &p->adam_m);
    ApplyMomentTable(parsed.adam_v, p->name, &p->adam_v);
    ++restored;
  }
  if (state != nullptr && (parsed.has_meta || parsed.state.has_rng)) {
    if (parsed.has_best_snapshot) {
      parsed.state.best_snapshot.reserve(parsed.best_snapshot.size());
      for (auto& [name, m] : parsed.best_snapshot) {
        parsed.state.best_snapshot.emplace_back(name, std::move(m));
      }
    }
    *state = std::move(parsed.state);
  }
  return restored;
}

util::Status ValidateCheckpoint(const std::string& path) {
  std::string image;
  LAYERGCN_RETURN_IF_ERROR(ReadFileImage(path, &image));
  ParsedCheckpoint parsed;
  return ParseCheckpointImage(path, image, &parsed);
}

// ---------------------------------------------------------------------------
// CheckpointManager.

CheckpointManager::CheckpointManager(std::string dir, int keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last) {
  LAYERGCN_CHECK_GE(keep_last_, 1);
}

std::string CheckpointManager::CheckpointPath(const std::string& dir,
                                              int64_t epoch) {
  return dir + "/" +
         util::StrFormat("ckpt-%06lld.lgcn", static_cast<long long>(epoch));
}

std::vector<std::pair<int64_t, std::string>> CheckpointManager::ListCheckpoints(
    const std::string& dir) {
  return util::ListNumberedFiles(dir, "ckpt-", ".lgcn");
}

util::Status CheckpointManager::Write(const std::vector<Parameter*>& params,
                                      const TrainingState& state) {
  OBS_SPAN("checkpoint.write");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return util::UnavailableError("cannot create checkpoint dir " + dir_ +
                                  ": " + ec.message());
  }
  const std::string path = CheckpointPath(dir_, state.epoch);
  LAYERGCN_RETURN_IF_ERROR(SaveCheckpointV2(path, params, &state));
  OBS_COUNT("checkpoint.writes", 1);

  // Rotation: drop the oldest files beyond keep_last (never the one just
  // written). Removal failures are non-fatal — worst case extra files stay.
  std::vector<std::pair<int64_t, std::string>> existing =
      ListCheckpoints(dir_);
  while (existing.size() > static_cast<size_t>(keep_last_)) {
    if (existing.front().second == path) break;
    fs::remove(existing.front().second, ec);
    existing.erase(existing.begin());
  }
  return util::OkStatus();
}

util::Status CheckpointManager::RestoreLatest(
    const std::vector<Parameter*>& params, TrainingState* state) {
  const std::vector<std::pair<int64_t, std::string>> files =
      ListCheckpoints(dir_);
  if (files.empty()) {
    return util::NotFoundError("no checkpoints in " + dir_);
  }
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    TrainingState candidate;
    const util::StatusOr<int> restored =
        LoadCheckpointV2(it->second, params, &candidate);
    if (restored.ok()) {
      if (state != nullptr) *state = std::move(candidate);
      if (it != files.rbegin()) {
        LAYERGCN_LOG(kWarning)
            << "fell back to " << it->second << " ("
            << std::distance(files.rbegin(), it) << " newer corrupt)";
      }
      return util::OkStatus();
    }
    LAYERGCN_LOG(kWarning) << "skipping corrupt checkpoint " << it->second
                           << ": " << restored.status().ToString();
    OBS_COUNT("checkpoint.fallbacks", 1);
  }
  return util::NotFoundError("no valid checkpoint in " + dir_ + " (" +
                             std::to_string(files.size()) +
                             " corrupt files skipped)");
}

}  // namespace layergcn::train
