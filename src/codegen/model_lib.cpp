#include "codegen/model_lib.h"

#include <dlfcn.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "codegen/fault.h"

namespace accmos {

namespace {

bool dlopenForcedToFail() { return faultPlanFromEnv().dlopenFail; }

std::string dlerrorText() {
  const char* e = ::dlerror();
  return e != nullptr ? e : "unknown dlopen error";
}

std::atomic<long> g_loadCount{0};

}  // namespace

long ModelLib::loadCount() {
  return g_loadCount.load(std::memory_order_relaxed);
}

ModelLib::ModelLib(const std::string& path) : path_(path) {
  auto t0 = std::chrono::steady_clock::now();
  if (dlopenForcedToFail()) {
    throw CompileError("dlopen of generated model library " + path +
                       " disabled by fault injection "
                       "(ACCMOS_FAULT=dlopen-fail)");
  }
  handle_ = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle_ == nullptr) {
    throw CompileError("dlopen of generated model library failed: " +
                       dlerrorText());
  }
  auto* infoFn = reinterpret_cast<AccmosModelInfoFn>(
      ::dlsym(handle_, ACCMOS_SYM_MODEL_INFO));
  run_ = reinterpret_cast<AccmosRunFn>(::dlsym(handle_, ACCMOS_SYM_RUN));
  if (infoFn == nullptr || run_ == nullptr) {
    std::string err = dlerrorText();
    ::dlclose(handle_);
    handle_ = nullptr;
    throw CompileError("generated model library " + path +
                       " is missing an ABI entry point: " + err);
  }
  std::memset(&info_, 0, sizeof(info_));
  info_.structSize = static_cast<uint32_t>(sizeof(AccmosModelInfo));
  int rc = infoFn(&info_);
  if (rc != ACCMOS_ABI_OK || info_.abiVersion != ACCMOS_ABI_VERSION) {
    uint32_t gotVersion = info_.abiVersion;
    ::dlclose(handle_);
    handle_ = nullptr;
    throw CompileError(
        "generated model library " + path + " reports incompatible ABI (rc=" +
        std::to_string(rc) + ", version=" + std::to_string(gotVersion) +
        ", host expects " + std::to_string(ACCMOS_ABI_VERSION) + ")");
  }
  auto t1 = std::chrono::steady_clock::now();
  loadSeconds_ = std::chrono::duration<double>(t1 - t0).count();
  g_loadCount.fetch_add(1, std::memory_order_relaxed);
}

ModelLib::~ModelLib() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

}  // namespace accmos
