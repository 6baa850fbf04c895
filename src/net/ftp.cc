#include "net/ftp.h"

#include "common/strings.h"

namespace chronos::net {

namespace {

constexpr int kReadTimeoutMs = 30000;
// FtpClient connects to the data port before it sends STOR/RETR/LIST, so
// the connection is normally already queued when the server accepts.
constexpr int kDataAcceptTimeoutMs = 2000;

// Formats a PASV reply "227 Entering Passive Mode (h1,h2,h3,h4,p1,p2)".
std::string PasvReply(int port) {
  return "227 Entering Passive Mode (127,0,0,1," + std::to_string(port / 256) +
         "," + std::to_string(port % 256) + ")\r\n";
}

// Extracts the data port from a PASV reply.
StatusOr<int> ParsePasvReply(const std::string& text) {
  size_t open = text.find('(');
  size_t close = text.find(')', open);
  if (open == std::string::npos || close == std::string::npos) {
    return Status::InvalidArgument("malformed PASV reply: " + text);
  }
  std::vector<std::string> parts = strings::Split(
      text.substr(open + 1, close - open - 1), ',', /*skip_empty=*/true);
  if (parts.size() != 6) {
    return Status::InvalidArgument("malformed PASV tuple: " + text);
  }
  uint64_t hi = 0, lo = 0;
  if (!strings::ParseUint64(strings::Trim(parts[4]), &hi) ||
      !strings::ParseUint64(strings::Trim(parts[5]), &lo)) {
    return Status::InvalidArgument("bad PASV port: " + text);
  }
  return static_cast<int>(hi * 256 + lo);
}

}  // namespace

FtpServer::FtpServer(std::string username, std::string password)
    : username_(std::move(username)), password_(std::move(password)) {}

StatusOr<std::unique_ptr<FtpServer>> FtpServer::Start(int port,
                                                      std::string username,
                                                      std::string password) {
  std::unique_ptr<FtpServer> server(
      new FtpServer(std::move(username), std::move(password)));
  FtpServer* raw = server.get();
  CHRONOS_ASSIGN_OR_RETURN(
      server->server_,
      ConnectionServer::Start(port, "ftp", [raw](TcpConnection* conn) {
        raw->ServeControl(conn);
      }));
  return server;
}

std::map<std::string, std::string> FtpServer::Files() const {
  MutexLock lock(mu_);
  return files_;
}

StatusOr<std::string> FtpServer::GetFile(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  return it->second;
}

size_t FtpServer::file_count() const {
  MutexLock lock(mu_);
  return files_.size();
}

void FtpServer::ServeControl(TcpConnection* conn) {
  conn->SetReadTimeoutMs(kReadTimeoutMs).IgnoreError();
  if (!conn->WriteAll("220 chronos-ftp ready\r\n").ok()) return;

  bool have_user = false;
  bool authenticated = false;
  std::unique_ptr<TcpListener> data_listener;

  while (true) {
    auto line_or = conn->ReadLine(8192);
    if (!line_or.ok() || line_or->empty()) return;
    std::string line(strings::Trim(*line_or));
    size_t space = line.find(' ');
    std::string command = strings::ToUpper(
        space == std::string::npos ? line : line.substr(0, space));
    std::string argument =
        space == std::string::npos
            ? std::string()
            : std::string(strings::Trim(line.substr(space + 1)));

    if (command == "USER") {
      have_user = argument == username_;
      conn->WriteAll("331 password required\r\n").IgnoreError();
    } else if (command == "PASS") {
      authenticated = have_user && argument == password_;
      conn->WriteAll(authenticated ? "230 logged in\r\n"
                                   : "530 login incorrect\r\n")
          .IgnoreError();
    } else if (command == "QUIT") {
      conn->WriteAll("221 bye\r\n").IgnoreError();
      return;
    } else if (!authenticated) {
      conn->WriteAll("530 not logged in\r\n").IgnoreError();
    } else if (command == "TYPE") {
      conn->WriteAll("200 type set\r\n").IgnoreError();
    } else if (command == "PASV") {
      auto listener = TcpListener::Listen(0);
      if (!listener.ok()) {
        conn->WriteAll("425 cannot open data port\r\n").IgnoreError();
        continue;
      }
      data_listener = std::move(listener).value();
      conn->WriteAll(PasvReply(data_listener->port())).IgnoreError();
    } else if (command == "STOR" || command == "RETR" || command == "LIST") {
      if (data_listener == nullptr) {
        conn->WriteAll("425 use PASV first\r\n").IgnoreError();
        continue;
      }
      if (command == "RETR") {
        // Reject before opening the data channel so the client sees 550 as
        // the direct reply to RETR.
        MutexLock lock(mu_);
        if (files_.count(argument) == 0) {
          conn->WriteAll("550 no such file\r\n").IgnoreError();
          data_listener.reset();
          continue;
        }
      }
      conn->WriteAll("150 opening data connection\r\n").IgnoreError();
      // Bounded: a peer that never opens the data connection must not hold
      // this session (and Stop()) forever.
      auto data = data_listener->Accept(kDataAcceptTimeoutMs);
      data_listener.reset();
      if (!data.ok()) {
        conn->WriteAll("425 data connection failed\r\n").IgnoreError();
        continue;
      }
      (*data)->SetReadTimeoutMs(kReadTimeoutMs).IgnoreError();
      if (command == "STOR") {
        std::string contents;
        while (true) {
          auto chunk = (*data)->ReadSome();
          if (!chunk.ok() || chunk->empty()) break;
          contents += *chunk;
        }
        {
          MutexLock lock(mu_);
          files_[argument] = std::move(contents);
        }
        conn->WriteAll("226 transfer complete\r\n").IgnoreError();
      } else if (command == "RETR") {
        std::string contents;
        {
          MutexLock lock(mu_);
          auto it = files_.find(argument);
          if (it != files_.end()) contents = it->second;
        }
        (*data)->WriteAll(contents).IgnoreError();
        (*data)->Close();
        conn->WriteAll("226 transfer complete\r\n").IgnoreError();
      } else {  // LIST
        std::string listing;
        {
          MutexLock lock(mu_);
          for (const auto& [name, contents] : files_) {
            listing += name + "\r\n";
          }
        }
        (*data)->WriteAll(listing).IgnoreError();
        (*data)->Close();
        conn->WriteAll("226 transfer complete\r\n").IgnoreError();
      }
    } else if (command == "DELE") {
      MutexLock lock(mu_);
      if (files_.erase(argument) > 0) {
        conn->WriteAll("250 deleted\r\n").IgnoreError();
      } else {
        conn->WriteAll("550 no such file\r\n").IgnoreError();
      }
    } else {
      conn->WriteAll("502 command not implemented\r\n").IgnoreError();
    }
  }
}

FtpClient::~FtpClient() = default;

StatusOr<std::unique_ptr<FtpClient>> FtpClient::Connect(
    const std::string& host, int port, const std::string& username,
    const std::string& password) {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> conn,
                           TcpConnection::Connect(host, port));
  CHRONOS_RETURN_IF_ERROR(conn->SetReadTimeoutMs(10000));
  std::unique_ptr<FtpClient> client(new FtpClient(std::move(conn)));
  CHRONOS_ASSIGN_OR_RETURN(int code, client->ReadReply());
  if (code != 220) return Status::Unavailable("ftp: unexpected greeting");
  CHRONOS_RETURN_IF_ERROR(client->SendCommand("USER " + username));
  CHRONOS_ASSIGN_OR_RETURN(code, client->ReadReply());
  if (code != 331 && code != 230) {
    return Status::Unauthenticated("ftp: USER rejected");
  }
  CHRONOS_RETURN_IF_ERROR(client->SendCommand("PASS " + password));
  CHRONOS_ASSIGN_OR_RETURN(code, client->ReadReply());
  if (code != 230) return Status::Unauthenticated("ftp: login failed");
  return client;
}

StatusOr<int> FtpClient::ReadReply(std::string* text) {
  CHRONOS_ASSIGN_OR_RETURN(std::string line, control_->ReadLine(8192));
  if (line.size() < 3) return Status::IoError("ftp: short reply");
  uint64_t code = 0;
  if (!strings::ParseUint64(line.substr(0, 3), &code)) {
    return Status::IoError("ftp: malformed reply: " + line);
  }
  if (text != nullptr) *text = std::string(strings::Trim(line));
  return static_cast<int>(code);
}

Status FtpClient::SendCommand(const std::string& command) {
  return control_->WriteAll(command + "\r\n");
}

StatusOr<std::unique_ptr<TcpConnection>> FtpClient::OpenDataConnection() {
  CHRONOS_RETURN_IF_ERROR(SendCommand("PASV"));
  std::string text;
  CHRONOS_ASSIGN_OR_RETURN(int code, ReadReply(&text));
  if (code != 227) return Status::Unavailable("ftp: PASV failed: " + text);
  CHRONOS_ASSIGN_OR_RETURN(int port, ParsePasvReply(text));
  return TcpConnection::Connect("127.0.0.1", port);
}

Status FtpClient::Store(const std::string& name, std::string_view contents) {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> data,
                           OpenDataConnection());
  CHRONOS_RETURN_IF_ERROR(SendCommand("STOR " + name));
  CHRONOS_ASSIGN_OR_RETURN(int code, ReadReply());
  if (code != 150) return Status::Unavailable("ftp: STOR rejected");
  CHRONOS_RETURN_IF_ERROR(data->WriteAll(contents));
  data->Close();
  CHRONOS_ASSIGN_OR_RETURN(code, ReadReply());
  if (code != 226) return Status::IoError("ftp: transfer failed");
  return Status::Ok();
}

StatusOr<std::string> FtpClient::Retrieve(const std::string& name) {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> data,
                           OpenDataConnection());
  CHRONOS_RETURN_IF_ERROR(SendCommand("RETR " + name));
  CHRONOS_ASSIGN_OR_RETURN(int code, ReadReply());
  if (code == 550) return Status::NotFound("ftp: no such file: " + name);
  if (code != 150) return Status::Unavailable("ftp: RETR rejected");
  std::string contents;
  while (true) {
    auto chunk = data->ReadSome();
    if (!chunk.ok() || chunk->empty()) break;
    contents += *chunk;
  }
  CHRONOS_ASSIGN_OR_RETURN(code, ReadReply());
  if (code != 226) return Status::IoError("ftp: transfer failed");
  return contents;
}

StatusOr<std::vector<std::string>> FtpClient::List() {
  CHRONOS_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> data,
                           OpenDataConnection());
  CHRONOS_RETURN_IF_ERROR(SendCommand("LIST"));
  CHRONOS_ASSIGN_OR_RETURN(int code, ReadReply());
  if (code != 150) return Status::Unavailable("ftp: LIST rejected");
  std::string listing;
  while (true) {
    auto chunk = data->ReadSome();
    if (!chunk.ok() || chunk->empty()) break;
    listing += *chunk;
  }
  CHRONOS_ASSIGN_OR_RETURN(code, ReadReply());
  if (code != 226) return Status::IoError("ftp: transfer failed");
  std::vector<std::string> names;
  for (const std::string& line : strings::Split(listing, '\n', true)) {
    std::string trimmed(strings::Trim(line));
    if (!trimmed.empty()) names.push_back(trimmed);
  }
  return names;
}

Status FtpClient::Delete(const std::string& name) {
  CHRONOS_RETURN_IF_ERROR(SendCommand("DELE " + name));
  CHRONOS_ASSIGN_OR_RETURN(int code, ReadReply());
  if (code == 550) return Status::NotFound("ftp: no such file: " + name);
  if (code != 250) return Status::IoError("ftp: DELE failed");
  return Status::Ok();
}

Status FtpClient::Quit() {
  CHRONOS_RETURN_IF_ERROR(SendCommand("QUIT"));
  ReadReply().IgnoreError();
  return Status::Ok();
}

}  // namespace chronos::net
