#include "util/simd.hpp"

#include <cstdlib>
#include <cstring>

namespace stob::simd {

namespace {

bool detect_forced() {
#if defined(STOB_SIMD_DISABLED)
  return true;
#else
  const char* env = std::getenv("STOB_SIMD");
  return env != nullptr && (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
                            std::strcmp(env, "0") == 0);
#endif
}

Level detect() {
  if (scalar_forced()) return Level::Scalar;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return Level::Avx2;
  return Level::Scalar;
#elif defined(__aarch64__) && defined(__ARM_NEON)
  return Level::Neon;
#else
  return Level::Scalar;
#endif
}

}  // namespace

bool scalar_forced() {
  static const bool forced = detect_forced();
  return forced;
}

Level active_level() {
  static const Level level = detect();
  return level;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::Avx2:
      return "avx2";
    case Level::Neon:
      return "neon";
    case Level::Scalar:
      break;
  }
  return "scalar";
}

}  // namespace stob::simd
