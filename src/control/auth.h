#ifndef CHRONOS_CONTROL_AUTH_H_
#define CHRONOS_CONTROL_AUTH_H_

#include <map>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "model/entities.h"

namespace chronos::control {

// Salted password hashing (SHA-256, iterated). Chronos Control stores only
// (salt, hash).
std::string HashPassword(const std::string& password, const std::string& salt);
std::string GenerateSalt();
bool VerifyPassword(const std::string& password, const std::string& salt,
                    const std::string& hash);

// In-memory session tokens ("advanced session management" of the web UI).
// Tokens are opaque UUIDs handed out at login and carried in the X-Session
// header. A session carries the User captured at login, so resolving a
// token reads no store row. No code path updates or deletes users today;
// any future one must invalidate that user's sessions, or they keep serving
// the old User until they expire.
class SessionManager {
 public:
  explicit SessionManager(Clock* clock = SystemClock::Get(),
                          int64_t ttl_ms = 12 * 3600 * 1000)
      : clock_(clock), ttl_ms_(ttl_ms) {}

  // Creates a session for the user and returns the token. Drops every
  // expired session first, so tokens that are never presented again do not
  // pile up (logins are rare; this is O(live sessions)).
  std::string CreateSession(model::User user);

  // Resolves a token to its user; expired/unknown tokens fail with
  // Unauthenticated.
  StatusOr<model::User> Resolve(const std::string& token);

  Status Invalidate(const std::string& token);

  // Drops expired sessions; returns how many were removed.
  int Sweep();

  size_t active_sessions() const;

 private:
  struct Session {
    model::User user;
    TimestampMs expires_at;
  };

  int SweepLocked() CHRONOS_REQUIRES(mu_);

  Clock* clock_;
  int64_t ttl_ms_;
  mutable Mutex mu_;
  std::map<std::string, Session> sessions_ CHRONOS_GUARDED_BY(mu_);
};

}  // namespace chronos::control

#endif  // CHRONOS_CONTROL_AUTH_H_
