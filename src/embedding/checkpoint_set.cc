#include "embedding/checkpoint_set.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/logging.h"

namespace nsc {

namespace {

constexpr char kPrefix[] = "ckpt-";
constexpr char kSuffix[] = ".nsc";
constexpr char kManifestName[] = "MANIFEST";

/// Parses "ckpt-<step>.nsc" into the step; false for any other name.
bool ParseCheckpointName(const std::string& name, int64_t* step) {
  const std::size_t prefix_len = std::strlen(kPrefix);
  const std::size_t suffix_len = std::strlen(kSuffix);
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(digits.c_str(), &end, 10);
  if (errno != 0 || end != digits.c_str() + digits.size() || value < 0) {
    return false;
  }
  *step = value;
  return true;
}

}  // namespace

CheckpointSet::CheckpointSet(std::string dir, CheckpointSetOptions options)
    : dir_(std::move(dir)), options_(options) {
  CHECK_GE(options_.keep, 1);
  CHECK(!dir_.empty());
}

Status CheckpointSet::Init() const {
  if (::mkdir(dir_.c_str(), 0777) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("cannot create checkpoint directory " + dir_ +
                         ": " + std::strerror(errno));
}

std::string CheckpointSet::CheckpointPath(int64_t step) const {
  return dir_ + "/" + kPrefix + std::to_string(step) + kSuffix;
}

StatusOr<std::vector<int64_t>> CheckpointSet::ListSteps() const {
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) {
    return Status::IOError("cannot list checkpoint directory " + dir_ +
                           ": " + std::strerror(errno));
  }
  std::vector<int64_t> steps;
  for (const dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    int64_t step = 0;
    if (ParseCheckpointName(entry->d_name, &step)) steps.push_back(step);
  }
  ::closedir(dir);
  std::sort(steps.begin(), steps.end());
  return steps;
}

Status CheckpointSet::WriteManifest(const std::vector<int64_t>& steps) const {
  // Advisory only (recovery rescans and validates), but still written
  // crash-safely: a torn manifest would confuse humans and tooling even
  // if it cannot confuse LoadLatestValid.
  const std::string path = dir_ + "/" + kManifestName;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out << "# NSCaching checkpoint set; newest last; recovery validates "
           "files, not this list\n";
    for (const int64_t step : steps) {
      out << step << ' ' << kPrefix << step << kSuffix << '\n';
    }
    out.flush();
    if (!out) return Status::IOError("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status CheckpointSet::Write(const KgeModel& model, int64_t step) const {
  NSC_RETURN_IF_ERROR(Init());
  // SaveModel carries the fault points ("ckpt.open"/"ckpt.write"); a torn
  // file it leaves behind is deliberately kept (see the header comment).
  NSC_RETURN_IF_ERROR(SaveModel(model, CheckpointPath(step)));

  StatusOr<std::vector<int64_t>> listed = ListSteps();
  NSC_RETURN_IF_ERROR(listed.status());
  std::vector<int64_t>& steps = listed.value();

  // Prune oldest-first down to `keep`, but never the file just written —
  // even when an unusual step ordering (restart from an older recovered
  // step) makes it not the newest on disk.
  while (steps.size() > static_cast<std::size_t>(options_.keep)) {
    const int64_t victim = steps.front();
    if (victim == step) break;
    std::remove(CheckpointPath(victim).c_str());
    steps.erase(steps.begin());
  }
  return WriteManifest(steps);
}

StatusOr<LoadedCheckpoint> CheckpointSet::LoadLatestValid() const {
  StatusOr<std::vector<int64_t>> listed = ListSteps();
  NSC_RETURN_IF_ERROR(listed.status());
  std::vector<int64_t> steps = std::move(listed.value());

  std::vector<std::string> skipped;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const std::string path = CheckpointPath(*it);
    StatusOr<KgeModel> loaded = LoadModel(path);
    if (loaded.ok()) {
      LoadedCheckpoint result{std::move(loaded).value(), *it,
                              std::move(skipped)};
      return result;
    }
    skipped.push_back(path + ": " + loaded.status().ToString());
  }
  std::string detail;
  for (const std::string& s : skipped) detail += "; " + s;
  return Status::NotFound("no valid checkpoint in " + dir_ + detail);
}

}  // namespace nsc
