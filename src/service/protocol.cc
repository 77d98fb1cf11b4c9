/**
 * @file
 * fpcd wire protocol implementation — see service/protocol.h for the
 * frame layout and hostility rules.
 */
#include "service/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace fpc {

namespace {

constexpr const char* kStage = "service-protocol";

void
AppendU8(Bytes& out, uint8_t value)
{
    out.push_back(static_cast<std::byte>(value));
}

void
AppendString(Bytes& out, const std::string& text)
{
    AppendBytes(out, ByteSpan(reinterpret_cast<const std::byte*>(
                                  text.data()),
                              text.size()));
}

void
AppendPreamble(Bytes& out, uint8_t kind)
{
    AppendU8(out, static_cast<uint8_t>('F'));
    AppendU8(out, static_cast<uint8_t>('Q'));
    AppendU8(out, kProtocolVersion);
    AppendU8(out, kind);
}

/** Bounds-checked cursor over a frame body; every read names the field
 *  it was after, so fuzzers get a diagnosable CorruptStreamError. */
class BodyReader {
 public:
    explicit BodyReader(ByteSpan body) : body_(body) {}

    uint8_t
    U8(const char* field)
    {
        Require(1, field);
        return static_cast<uint8_t>(body_[at_++]);
    }

    uint64_t
    U64(const char* field)
    {
        Require(8, field);
        const uint64_t value = ReadRaw<uint64_t>(body_, at_);
        at_ += 8;
        return value;
    }

    uint32_t
    U32(const char* field)
    {
        Require(4, field);
        const uint32_t value = ReadRaw<uint32_t>(body_, at_);
        at_ += 4;
        return value;
    }

    std::string
    String(size_t length, const char* field)
    {
        Require(length, field);
        std::string text(reinterpret_cast<const char*>(body_.data() + at_),
                         length);
        at_ += length;
        return text;
    }

    Bytes
    Rest()
    {
        Bytes out;
        AppendBytes(out, ByteSpan(body_).subspan(at_));
        at_ = body_.size();
        return out;
    }

    size_t Offset() const { return at_; }

 private:
    void
    Require(size_t n, const char* field)
    {
        FPC_PARSE_CHECK_AT(at_ <= body_.size() && n <= body_.size() - at_,
                           std::string("frame truncated in ") + field,
                           kStage, at_);
    }

    ByteSpan body_;
    size_t at_ = 0;
};

/** Validate the 4-byte preamble and return the body past it. */
BodyReader
OpenBody(ByteSpan body, uint8_t expected_kind)
{
    BodyReader reader(body);
    const uint8_t m0 = reader.U8("magic");
    const uint8_t m1 = reader.U8("magic");
    FPC_PARSE_CHECK_AT(m0 == 'F' && m1 == 'Q', "bad frame magic", kStage, 0);
    const uint8_t version = reader.U8("version");
    FPC_PARSE_CHECK_AT(version == kProtocolVersion,
                       "unsupported protocol version " +
                           std::to_string(version),
                       kStage, 2);
    const uint8_t kind = reader.U8("kind");
    FPC_PARSE_CHECK_AT(kind == expected_kind,
                       expected_kind == kFrameRequest
                           ? "expected a request frame"
                           : "expected a response frame",
                       kStage, 3);
    return reader;
}

/** read() the exact byte count, retrying EINTR. Returns bytes read
 *  (short only on EOF); throws on socket errors. */
size_t
ReadExactly(int fd, std::byte* out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, out + got, n - got);
        if (r == 0) break;  // peer closed
        if (r < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("service socket read: ") +
                                     std::strerror(errno));
        }
        got += static_cast<size_t>(r);
    }
    return got;
}

}  // namespace

Bytes
EncodeRequest(const ServiceRequest& request)
{
    if (request.tenant.size() > UINT8_MAX) {
        throw UsageError("tenant id longer than 255 bytes");
    }
    if (request.executor.size() > UINT8_MAX) {
        throw UsageError("executor name longer than 255 bytes");
    }
    Bytes out;
    out.reserve(32 + request.tenant.size() + request.executor.size() +
                request.payload.size());
    if (request.request_id.size() > kMaxRequestIdBytes) {
        throw UsageError("request id longer than " +
                         std::to_string(kMaxRequestIdBytes) + " bytes");
    }
    AppendPreamble(out, kFrameRequest);
    AppendU8(out, static_cast<uint8_t>(request.verb));
    AppendU8(out, static_cast<uint8_t>(request.algorithm));
    uint8_t flags = request.adaptive ? 1 : 0;
    if (!request.request_id.empty()) flags |= 2;
    AppendU8(out, flags);
    AppendU8(out, static_cast<uint8_t>(request.tenant.size()));
    AppendString(out, request.tenant);
    AppendU8(out, static_cast<uint8_t>(request.executor.size()));
    AppendString(out, request.executor);
    AppendRaw(out, request.range_first);
    AppendRaw(out, request.range_count);
    if (!request.request_id.empty()) {
        AppendU8(out, static_cast<uint8_t>(request.request_id.size()));
        AppendString(out, request.request_id);
    }
    AppendBytes(out, ByteSpan(request.payload));
    return out;
}

ServiceRequest
DecodeRequest(ByteSpan body)
{
    BodyReader reader = OpenBody(body, kFrameRequest);
    ServiceRequest request;
    const uint8_t verb = reader.U8("verb");
    FPC_PARSE_CHECK_AT(
        verb <= static_cast<uint8_t>(ServiceVerb::kServerStats),
        "unknown verb " + std::to_string(verb), kStage, reader.Offset());
    request.verb = static_cast<ServiceVerb>(verb);
    const uint8_t algorithm = reader.U8("algorithm");
    FPC_PARSE_CHECK_AT(
        algorithm <= static_cast<uint8_t>(Algorithm::kDPratio),
        "unknown algorithm " + std::to_string(algorithm), kStage,
        reader.Offset());
    request.algorithm = static_cast<Algorithm>(algorithm);
    const uint8_t flags = reader.U8("flags");
    FPC_PARSE_CHECK_AT((flags & ~uint8_t{3}) == 0,
                       "unknown flag bits " + std::to_string(flags), kStage,
                       reader.Offset());
    request.adaptive = (flags & 1) != 0;
    request.tenant = reader.String(reader.U8("tenant length"), "tenant");
    FPC_PARSE_CHECK_AT(!request.tenant.empty(), "empty tenant id", kStage,
                       reader.Offset());
    request.executor =
        reader.String(reader.U8("executor length"), "executor");
    request.range_first = reader.U64("range_first");
    request.range_count = reader.U64("range_count");
    if ((flags & 2) != 0) {
        const uint8_t id_length = reader.U8("request id length");
        FPC_PARSE_CHECK_AT(id_length >= 1 &&
                               id_length <= kMaxRequestIdBytes,
                           "request id length " + std::to_string(id_length) +
                               " out of range",
                           kStage, reader.Offset());
        request.request_id = reader.String(id_length, "request id");
        for (const char c : request.request_id) {
            // The id travels into log lines and trace labels verbatim:
            // reject anything outside the quote-free safe set.
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' ||
                            c == '_' || c == '.';
            FPC_PARSE_CHECK_AT(ok, "request id contains invalid bytes",
                               kStage, reader.Offset());
        }
    }
    request.payload = reader.Rest();
    return request;
}

Bytes
EncodeResponse(const ServiceResponse& response)
{
    Bytes out;
    out.reserve(16 + response.error.size() + response.payload.size());
    AppendPreamble(out, kFrameResponse);
    AppendU8(out, static_cast<uint8_t>(response.status));
    AppendRaw(out, static_cast<uint32_t>(response.error.size()));
    AppendString(out, response.error);
    AppendBytes(out, ByteSpan(response.payload));
    return out;
}

ServiceResponse
DecodeResponse(ByteSpan body)
{
    BodyReader reader = OpenBody(body, kFrameResponse);
    ServiceResponse response;
    const uint8_t status = reader.U8("status");
    FPC_PARSE_CHECK_AT(status <= static_cast<uint8_t>(Errc::kBusy),
                       "unknown status " + std::to_string(status), kStage,
                       reader.Offset());
    response.status = static_cast<Errc>(status);
    const uint32_t error_length = reader.U32("error length");
    response.error = reader.String(error_length, "error text");
    response.payload = reader.Rest();
    return response;
}

bool
ReadFrame(int fd, Bytes& body)
{
    std::byte prefix[4];
    const size_t got = ReadExactly(fd, prefix, sizeof prefix);
    if (got == 0) return false;  // clean EOF at a frame boundary
    FPC_PARSE_CHECK_AT(got == sizeof prefix,
                       "connection closed inside a frame length", kStage,
                       got);
    uint32_t length = 0;
    std::memcpy(&length, prefix, sizeof length);
    // Reject before allocating: the declared length is attacker data.
    FPC_PARSE_CHECK_AT(length <= kMaxFrameBytes,
                       "declared frame length " + std::to_string(length) +
                           " exceeds the " +
                           std::to_string(kMaxFrameBytes) + "-byte cap",
                       kStage, 0);
    body.resize(length);
    const size_t body_got = ReadExactly(fd, body.data(), length);
    FPC_PARSE_CHECK_AT(body_got == length,
                       "connection closed inside a frame body", kStage,
                       body_got);
    return true;
}

void
WriteFrame(int fd, ByteSpan body)
{
    if (body.size() > kMaxFrameBytes) {
        throw UsageError("frame body exceeds the " +
                         std::to_string(kMaxFrameBytes) + "-byte cap");
    }
    const auto length = static_cast<uint32_t>(body.size());
    Bytes frame;
    frame.reserve(sizeof length + body.size());
    AppendRaw(frame, length);
    AppendBytes(frame, body);
    size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t w = ::send(fd, frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("service socket write: ") +
                                     std::strerror(errno));
        }
        sent += static_cast<size_t>(w);
    }
}

int
ConnectUnix(const std::string& path)
{
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof address.sun_path) {
        throw UsageError("socket path too long: " + path);
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
        const int err = errno;
        ::close(fd);
        throw UsageError("cannot connect to " + path + ": " +
                         std::strerror(err));
    }
    return fd;
}

}  // namespace fpc
