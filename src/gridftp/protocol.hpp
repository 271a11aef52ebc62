// GridFTP control-channel protocol: command codec, reply codec, and the
// server-side session state machine.
//
// Section 3: "GridFTP consists of two modules: the control, or server,
// module and the client module.  The server module manages connection,
// authentication, creation of control and data channels ..."  This
// header implements that control module at the command level (RFC 959
// verbs plus the GridFTP extensions the paper relies on: GSSAPI
// authentication, SBUF/OPTS for tuned buffers and parallel streams,
// ERET for partial transfers).  A ServerSession validates the command
// sequence against the server's filesystem and availability and, when a
// transfer command succeeds, emits a DataCommand for the simulation's
// fluid engine to execute — the instant the instrumented timing window
// opens.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "gridftp/server.hpp"
#include "util/types.hpp"

namespace wadp::gridftp {

/// One control-channel command line: canonical upper-case verb plus the
/// raw argument text ("RETR /home/ftp/vazhkuda/10 MB").
struct CommandMessage {
  std::string verb;
  std::string argument;

  /// Parses "VERB[ argument]".  nullopt on an empty or malformed line
  /// (verbs are 3-4 ASCII letters).
  static std::optional<CommandMessage> parse(std::string_view line);
  std::string to_line() const;

  bool operator==(const CommandMessage&) const = default;
};

/// One reply line: "226 Transfer complete".
struct Reply {
  int code = 0;
  std::string text;

  bool positive_preliminary() const { return code / 100 == 1; }
  bool positive_completion() const { return code / 100 == 2; }
  bool positive_intermediate() const { return code / 100 == 3; }
  bool transient_error() const { return code / 100 == 4; }
  bool permanent_error() const { return code / 100 == 5; }
  bool ok() const { return code / 100 <= 3; }

  static std::optional<Reply> parse(std::string_view line);
  std::string to_line() const;

  bool operator==(const Reply&) const = default;
};

/// Per-session negotiated transfer parameters.
struct SessionOptions {
  int parallelism = 1;              ///< OPTS RETR Parallelism=n;
  Bytes buffer = 32 * kKiB;         ///< SBUF bytes
  char type = 'A';                  ///< TYPE A (ASCII) or I (image)
  char mode = 'S';                  ///< MODE S (stream) or E (extended block)
  bool passive = false;             ///< PASV/SPAS issued
  std::optional<Bytes> restart_offset;  ///< pending REST
};

/// What a granted transfer command asks the data plane to do.
struct DataCommand {
  enum class Kind { kRetrieve, kStore };
  Kind kind = Kind::kRetrieve;
  std::string path;
  Bytes offset = 0;                  ///< from REST or ERET
  std::optional<Bytes> length;       ///< ERET partial length
  std::optional<Bytes> store_size;   ///< ALLO-announced size for STOR
  int streams = 1;
  Bytes buffer = 32 * kKiB;

  bool operator==(const DataCommand&) const = default;
};

enum class SessionState {
  kAwaitingAuth,  ///< connection open; AUTH GSSAPI expected
  kAwaitingAdat,  ///< security handshake in progress
  kAwaitingUser,
  kAwaitingPass,
  kReady,
  kTransferring,  ///< a DataCommand is outstanding
  kClosed,
};

const char* to_string(SessionState state);

/// Server-side control session.  Drive it with handle()/handle_line();
/// when a transfer command is accepted (150 reply) the pending
/// DataCommand describes the data phase, and complete_transfer() emits
/// the closing 226/426.
class ServerSession {
 public:
  explicit ServerSession(GridFtpServer& server);

  Reply handle(const CommandMessage& command);
  Reply handle_line(std::string_view line);

  GridFtpServer& server() const { return server_; }
  SessionState state() const { return state_; }
  const SessionOptions& options() const { return options_; }
  const std::string& authenticated_user() const { return user_; }

  /// Armed by RETR/STOR/ERET; consuming it is the caller's signal to
  /// run the data phase.
  std::optional<DataCommand> take_pending_data();

  /// Reports the data phase's outcome; returns the 226 (or 426) reply
  /// and returns the session to kReady.
  Reply complete_transfer(bool ok);

 private:
  Reply dispatch_ready(const CommandMessage& command);
  Reply begin_retrieve(const std::string& path, std::optional<Bytes> offset,
                       std::optional<Bytes> length);
  Reply begin_store(const std::string& path);

  GridFtpServer& server_;
  SessionState state_;
  SessionOptions options_;
  std::string user_;
  std::optional<DataCommand> pending_;
  std::optional<Bytes> allo_size_;  ///< ALLO before STOR
};

}  // namespace wadp::gridftp
