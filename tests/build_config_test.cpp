// Build-configuration guard: a Sanitize tree (-DCMAKE_BUILD_TYPE=Sanitize,
// optionally -DNOW_TSAN=ON) must actually compile with the sanitizer it
// promises. An uninstrumented Sanitize tree fails to build here instead of
// running the suite unsanitized.
#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#define NOW_HAS_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define NOW_HAS_TSAN 1
#endif
#if defined(__has_feature)  // clang spells the checks as features
#if __has_feature(address_sanitizer)
#define NOW_HAS_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define NOW_HAS_TSAN 1
#endif
#endif

#if defined(NOW_SANITIZE_BUILD) && defined(NOW_TSAN_BUILD) && \
    !defined(NOW_HAS_TSAN)
#error "Sanitize tree with NOW_TSAN=ON compiled without -fsanitize=thread"
#endif
#if defined(NOW_SANITIZE_BUILD) && !defined(NOW_TSAN_BUILD) && \
    !defined(NOW_HAS_ASAN)
#error "Sanitize tree compiled without -fsanitize=address"
#endif

namespace {

TEST(BuildConfig, SanitizeTreesAreInstrumented) {
#if defined(NOW_HAS_TSAN)
  RecordProperty("sanitizer", "thread");
#elif defined(NOW_HAS_ASAN)
  RecordProperty("sanitizer", "address,undefined");
#else
  RecordProperty("sanitizer", "none");
#endif
}

}  // namespace
