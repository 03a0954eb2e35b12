//===- service/Protocol.cpp -----------------------------------------------===//

#include "service/Protocol.h"

#include "service/Io.h"

#include <sys/socket.h>
#include <unistd.h>

using namespace algoprof;
using namespace algoprof::service;

const char algoprof::service::ProtocolVersionV2[] = "algoprof-wire/2";

const char *service::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::Job:
    return "job";
  case FrameType::Accepted:
    return "accepted";
  case FrameType::RunDelta:
    return "run-delta";
  case FrameType::Profile:
    return "profile";
  case FrameType::Done:
    return "done";
  case FrameType::Error:
    return "error";
  }
  return "?";
}

namespace {

bool knownFrameType(uint8_t B) {
  switch (static_cast<FrameType>(B)) {
  case FrameType::Job:
  case FrameType::Accepted:
  case FrameType::RunDelta:
  case FrameType::Profile:
  case FrameType::Done:
  case FrameType::Error:
    return true;
  }
  return false;
}

// Exact-count reads/writes live in service/Io.h (io::readFull /
// io::writeFull): EINTR retried, short transfers never success.

void appendLine(std::string &S, const char *Key, const std::string &V) {
  S += Key;
  S += '=';
  S += V;
  S += '\n';
}

void appendLine(std::string &S, const char *Key, uint64_t V) {
  appendLine(S, Key, std::to_string(V));
}

/// Splits \p Payload into key=value lines up to (exclusive) \p End.
/// Returns false on a line without '='.
bool splitLines(const std::string &Payload, size_t Begin, size_t End,
                std::vector<std::pair<std::string, std::string>> &Out) {
  size_t Pos = Begin;
  while (Pos < End) {
    size_t Nl = Payload.find('\n', Pos);
    if (Nl == std::string::npos || Nl > End)
      Nl = End;
    std::string Line = Payload.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos)
      return false;
    Out.emplace_back(Line.substr(0, Eq), Line.substr(Eq + 1));
  }
  return true;
}

} // namespace

std::string service::encodeFrame(FrameType Type, const std::string &Payload) {
  std::string Out;
  Out.reserve(5 + Payload.size());
  uint32_t N = static_cast<uint32_t>(Payload.size());
  Out.push_back(static_cast<char>((N >> 24) & 0xff));
  Out.push_back(static_cast<char>((N >> 16) & 0xff));
  Out.push_back(static_cast<char>((N >> 8) & 0xff));
  Out.push_back(static_cast<char>(N & 0xff));
  Out.push_back(static_cast<char>(Type));
  Out += Payload;
  return Out;
}

bool service::sendFrame(int Fd, FrameType Type, const std::string &Payload,
                        uint64_t *BytesOut) {
  std::string Wire = encodeFrame(Type, Payload);
  if (!io::writeFull(Fd, Wire.data(), Wire.size()))
    return false;
  if (BytesOut)
    *BytesOut += Wire.size();
  return true;
}

ReadStatus service::readFrame(int Fd, Frame &Out, size_t MaxPayload) {
  unsigned char Hdr[5];
  // The first header byte distinguishes clean EOF from truncation.
  ssize_t R = io::retryOn([&] { return ::recv(Fd, Hdr, 1, 0); });
  if (R == 0)
    return ReadStatus::Eof;
  if (R < 0)
    return ReadStatus::Truncated;
  if (!io::readFull(Fd, Hdr + 1, 4))
    return ReadStatus::Truncated;
  uint32_t N = (static_cast<uint32_t>(Hdr[0]) << 24) |
               (static_cast<uint32_t>(Hdr[1]) << 16) |
               (static_cast<uint32_t>(Hdr[2]) << 8) |
               static_cast<uint32_t>(Hdr[3]);
  if (!knownFrameType(Hdr[4]))
    return ReadStatus::BadType;
  if (N > MaxPayload)
    return ReadStatus::Oversized;
  Out.Type = static_cast<FrameType>(Hdr[4]);
  Out.Payload.resize(N);
  if (N > 0 && !io::readFull(Fd, &Out.Payload[0], N))
    return ReadStatus::Truncated;
  return ReadStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Job request codec
//===----------------------------------------------------------------------===//

std::string service::encodeJobRequest(const JobRequest &R) {
  std::string S;
  S += ProtocolVersionV2;
  S += '\n';
  if (!R.Auth.empty())
    appendLine(S, "auth", R.Auth);
  if (R.Resume != 0)
    appendLine(S, "resume", R.Resume);
  if (R.FromDelta != 0)
    appendLine(S, "from-delta", R.FromDelta);
  if (!R.Corpus.empty())
    appendLine(S, "corpus", R.Corpus);
  prof::encodeJobOptions(R, S);
  if (!R.Source.empty()) {
    // The source trailer must come last: its byte count is declared on
    // the line, and the raw bytes follow unescaped.
    appendLine(S, "source", std::to_string(R.Source.size()));
    S += R.Source;
  }
  return S;
}

bool service::parseJobRequest(const std::string &Payload, JobRequest &Out,
                              std::string &Err) {
  Out = JobRequest();
  size_t FirstNl = Payload.find('\n');
  if (FirstNl == std::string::npos) {
    Err = std::string("expected version line '") + ProtocolVersionV2 + "'";
    return false;
  }
  std::string Version = Payload.substr(0, FirstNl);
  if (Version != ProtocolVersionV2) {
    Err = "unsupported protocol '" + Version + "' (supported: " +
          ProtocolVersionV2 + ")";
    return false;
  }
  size_t Pos = FirstNl + 1;
  while (Pos < Payload.size()) {
    size_t Nl = Payload.find('\n', Pos);
    if (Nl == std::string::npos) {
      Err = "unterminated line";
      return false;
    }
    std::string Line = Payload.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos) {
      Err = "line '" + Line + "' is not key=value";
      return false;
    }
    std::string Key = Line.substr(0, Eq);
    std::string Val = Line.substr(Eq + 1);
    if (Key == "auth") {
      Out.Auth = Val;
    } else if (Key == "resume") {
      if (!prof::parseInteger(Val, Out.Resume) || Out.Resume == 0) {
        Err = "invalid resume session id '" + Val + "'";
        return false;
      }
    } else if (Key == "from-delta") {
      if (!prof::parseInteger(Val, Out.FromDelta)) {
        Err = "invalid from-delta cursor '" + Val + "'";
        return false;
      }
    } else if (Key == "corpus") {
      Out.Corpus = Val;
    } else if (const prof::JobKey *K = prof::findJobWireKey(Key)) {
      if (!prof::parseJobValue(*K, K->Wire, Val.c_str(), Out, Err))
        return false;
    } else if (Key == "source") {
      uint64_t N;
      if (!prof::parseInteger(Val, N)) {
        Err = "invalid source byte count '" + Val + "'";
        return false;
      }
      if (Payload.size() - Pos != N) {
        Err = "source trailer declares " + Val + " bytes, got " +
              std::to_string(Payload.size() - Pos);
        return false;
      }
      Out.Source = Payload.substr(Pos);
      Pos = Payload.size();
    } else {
      Err = "unknown key '" + Key + "'";
      return false;
    }
  }
  int Goals = (!Out.Corpus.empty() ? 1 : 0) + (!Out.Source.empty() ? 1 : 0) +
              (Out.Resume != 0 ? 1 : 0);
  if (Goals != 1) {
    Err = Goals == 0
              ? "job needs a corpus name, inline source, or resume id"
              : "corpus, inline source, and resume are mutually exclusive";
    return false;
  }
  if (Out.FromDelta != 0 && Out.Resume == 0) {
    Err = "from-delta is only valid with resume";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Response codecs
//===----------------------------------------------------------------------===//

std::string service::encodeAccepted(const AcceptedMsg &M) {
  std::string S;
  appendLine(S, "session", M.Session);
  appendLine(S, "runs", M.Runs);
  appendLine(S, "proto", std::string("2"));
  if (M.Resumed) {
    appendLine(S, "resumed", std::string("1"));
    appendLine(S, "resumed-from", M.ResumedFrom);
  }
  return S;
}

bool service::parseAccepted(const std::string &Payload, AcceptedMsg &Out) {
  Out = AcceptedMsg();
  std::vector<std::pair<std::string, std::string>> KV;
  if (!splitLines(Payload, 0, Payload.size(), KV))
    return false;
  for (const auto &P : KV) {
    if (P.first == "session") {
      if (!prof::parseInteger(P.second, Out.Session))
        return false;
    } else if (P.first == "runs") {
      if (!prof::parseInteger(P.second, Out.Runs))
        return false;
    } else if (P.first == "resumed") {
      Out.Resumed = P.second == "1";
    } else if (P.first == "resumed-from") {
      if (!prof::parseInteger(P.second, Out.ResumedFrom))
        return false;
    }
  }
  return true;
}

std::string service::encodeRunDelta(const RunDeltaMsg &M) {
  std::string S;
  appendLine(S, "run", std::to_string(M.Run));
  appendLine(S, "index", M.Index);
  appendLine(S, "total", M.Total);
  appendLine(S, "status", M.Status);
  appendLine(S, "budget", M.Budget);
  appendLine(S, "attempts", std::to_string(M.Attempts));
  appendLine(S, "quarantined", std::string(M.Quarantined ? "1" : "0"));
  appendLine(S, "merged-runs", std::to_string(M.MergedRuns));
  appendLine(S, "tree-repetitions", std::to_string(M.TreeRepetitions));
  appendLine(S, "new-repetitions", std::to_string(M.NewRepetitions));
  // Labels may contain any character but tab/newline; tab separates.
  for (const FitEstimate &F : M.Fits)
    appendLine(S, "fit", F.Label + '\t' + F.Formula);
  return S;
}

bool service::parseRunDelta(const std::string &Payload, RunDeltaMsg &Out) {
  Out = RunDeltaMsg();
  std::vector<std::pair<std::string, std::string>> KV;
  if (!splitLines(Payload, 0, Payload.size(), KV))
    return false;
  for (const auto &P : KV) {
    if (P.first == "run") {
      if (!prof::parseInteger(P.second, Out.Run))
        return false;
    } else if (P.first == "index") {
      if (!prof::parseInteger(P.second, Out.Index))
        return false;
    } else if (P.first == "total") {
      if (!prof::parseInteger(P.second, Out.Total))
        return false;
    } else if (P.first == "status") {
      Out.Status = P.second;
    } else if (P.first == "budget") {
      Out.Budget = P.second;
    } else if (P.first == "attempts") {
      if (!prof::parseInteger(P.second, Out.Attempts))
        return false;
    } else if (P.first == "quarantined") {
      Out.Quarantined = P.second == "1";
    } else if (P.first == "merged-runs") {
      if (!prof::parseInteger(P.second, Out.MergedRuns))
        return false;
    } else if (P.first == "tree-repetitions") {
      if (!prof::parseInteger(P.second, Out.TreeRepetitions))
        return false;
    } else if (P.first == "new-repetitions") {
      if (!prof::parseInteger(P.second, Out.NewRepetitions))
        return false;
    } else if (P.first == "fit") {
      size_t Tab = P.second.find('\t');
      if (Tab == std::string::npos)
        return false;
      FitEstimate F;
      F.Label = P.second.substr(0, Tab);
      F.Formula = P.second.substr(Tab + 1);
      Out.Fits.push_back(std::move(F));
    }
  }
  return true;
}

std::string service::encodeDone(const DoneMsg &M) {
  std::string S;
  appendLine(S, "runs", M.Runs);
  appendLine(S, "merged-runs", M.MergedRuns);
  appendLine(S, "degraded-runs", M.DegradedRuns);
  return S;
}

bool service::parseDone(const std::string &Payload, DoneMsg &Out) {
  Out = DoneMsg();
  std::vector<std::pair<std::string, std::string>> KV;
  if (!splitLines(Payload, 0, Payload.size(), KV))
    return false;
  for (const auto &P : KV) {
    if (P.first == "runs") {
      if (!prof::parseInteger(P.second, Out.Runs))
        return false;
    } else if (P.first == "merged-runs") {
      if (!prof::parseInteger(P.second, Out.MergedRuns))
        return false;
    } else if (P.first == "degraded-runs") {
      if (!prof::parseInteger(P.second, Out.DegradedRuns))
        return false;
    }
  }
  return true;
}

std::string service::encodeError(const std::string &Code,
                                 const std::string &Message) {
  std::string S;
  appendLine(S, "code", Code);
  // The message is the last field and may span lines (compiler
  // diagnostics do); everything after "message=" belongs to it.
  S += "message=";
  S += Message;
  S += '\n';
  return S;
}

bool service::parseError(const std::string &Payload, ErrorMsg &Out) {
  Out = ErrorMsg();
  size_t Nl = Payload.find('\n');
  if (Nl == std::string::npos || Payload.rfind("code=", 0) != 0)
    return false;
  Out.Code = Payload.substr(5, Nl - 5);
  size_t MsgPos = Nl + 1;
  if (Payload.rfind("message=", MsgPos) != MsgPos)
    return false;
  Out.Message = Payload.substr(MsgPos + 8);
  if (!Out.Message.empty() && Out.Message.back() == '\n')
    Out.Message.pop_back();
  return true;
}
