#ifndef CHRONOS_TESTS_SERVER_TEST_UTIL_H_
#define CHRONOS_TESTS_SERVER_TEST_UTIL_H_

#include <chrono>
#include <future>
#include <memory>
#include <thread>

namespace chronos::testing {

// Runs (*server)->Stop() on its own thread and reports whether it returned
// within `deadline_ms`. On a miss the server is leaked, still stopping, so a
// test of a Stop() that never returns fails instead of hanging.
template <typename Server>
bool StopsWithin(std::unique_ptr<Server>* server, int64_t deadline_ms) {
  Server* raw = server->get();
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> stopped = done->get_future();
  std::thread stopper([raw, done] {
    raw->Stop();
    done->set_value();
  });
  if (stopped.wait_for(std::chrono::milliseconds(deadline_ms)) ==
      std::future_status::ready) {
    stopper.join();
    return true;
  }
  stopper.detach();
  (void)server->release();
  return false;
}

inline int64_t MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace chronos::testing

#endif  // CHRONOS_TESTS_SERVER_TEST_UTIL_H_
