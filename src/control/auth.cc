#include "control/auth.h"

#include <utility>

#include "common/sha256.h"
#include "common/uuid.h"

namespace chronos::control {

std::string HashPassword(const std::string& password,
                         const std::string& salt) {
  // Iterated salted SHA-256. The iteration count trades brute-force cost
  // against login latency; 1000 keeps unit tests fast.
  std::string digest = salt + ":" + password;
  for (int i = 0; i < 1000; ++i) {
    digest = Sha256(digest);
  }
  return Sha256Hex(digest);
}

std::string GenerateSalt() { return GenerateUuid(); }

bool VerifyPassword(const std::string& password, const std::string& salt,
                    const std::string& hash) {
  return HashPassword(password, salt) == hash;
}

std::string SessionManager::CreateSession(model::User user) {
  std::string token = GenerateUuid();
  MutexLock lock(mu_);
  SweepLocked();
  sessions_[token] = Session{std::move(user), clock_->NowMs() + ttl_ms_};
  return token;
}

StatusOr<model::User> SessionManager::Resolve(const std::string& token) {
  MutexLock lock(mu_);
  auto it = sessions_.find(token);
  if (it == sessions_.end()) {
    return Status::Unauthenticated("unknown session token");
  }
  if (it->second.expires_at < clock_->NowMs()) {
    sessions_.erase(it);
    return Status::Unauthenticated("session expired");
  }
  return it->second.user;
}

Status SessionManager::Invalidate(const std::string& token) {
  MutexLock lock(mu_);
  if (sessions_.erase(token) == 0) {
    return Status::NotFound("no such session");
  }
  return Status::Ok();
}

int SessionManager::Sweep() {
  MutexLock lock(mu_);
  return SweepLocked();
}

int SessionManager::SweepLocked() {
  int removed = 0;
  TimestampMs now = clock_->NowMs();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.expires_at < now) {
      it = sessions_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

size_t SessionManager::active_sessions() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

}  // namespace chronos::control
