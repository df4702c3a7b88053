// Query server + wire protocol (ctest label `net`): frame codec
// roundtrips and fuzzing, server-vs-direct row-identity differentials
// across shard counts x engines x join strategies, malformed/oversized
// input and oversized-result handling (framed Status errors, never
// asserts or forbidden frames), DRR fairness
// under a greedy pipelining client, admission-control overload,
// per-connection backpressure, request deadlines, the HTTP
// observability endpoints, and per-request trace spans.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/graph_matcher.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "server_fixture.h"
#include "workload/patterns.h"

namespace fgpm {
namespace {

using net::FrameDecoder;
using net::QueryRequest;
using net::QueryResponse;
using net::ServerOptions;

Pattern P(std::string_view text) {
  auto p = Pattern::Parse(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status();
  return *p;
}

RowBlock SortedRows(Result<MatchResult> r) {
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return {};
  r->SortRows();
  return std::move(r->rows);
}

// --- wire codec -------------------------------------------------------------

TEST(WireTest, RequestRoundtrip) {
  QueryRequest req;
  req.id = 0x1122334455667788ull;
  req.deadline_ms = 250;
  req.engine = 2;
  req.flags = net::kFlagChecksumOnly | net::kFlagTransitiveReduction;
  req.pattern = "A->B; B->C";
  std::string frame;
  EncodeQueryRequest(req, &frame);

  FrameDecoder dec;
  dec.Append(frame);
  std::string payload;
  auto has = dec.Next(&payload);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  QueryRequest back;
  ASSERT_TRUE(DecodeQueryRequest(payload, &back).ok());
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.engine, req.engine);
  EXPECT_EQ(back.flags, req.flags);
  EXPECT_EQ(back.pattern, req.pattern);
  EXPECT_TRUE(back.checksum_only());
}

TEST(WireTest, TraceContextExtensionRoundtrip) {
  QueryRequest req;
  req.id = 99;
  req.pattern = "A->B";
  req.has_trace = true;
  req.trace_id = 0xabcdef0123456789ull;
  req.parent_span = 17;
  req.trace_sampled = true;
  std::string frame;
  EncodeQueryRequest(req, &frame);

  FrameDecoder dec;
  dec.Append(frame);
  std::string payload;
  ASSERT_TRUE(*dec.Next(&payload));
  QueryRequest back;
  ASSERT_TRUE(DecodeQueryRequest(payload, &back).ok());
  EXPECT_TRUE(back.has_trace);
  EXPECT_EQ(back.trace_id, req.trace_id);
  EXPECT_EQ(back.parent_span, req.parent_span);
  EXPECT_TRUE(back.trace_sampled);
  EXPECT_EQ(back.pattern, "A->B");
  EXPECT_TRUE(back.flags & net::kFlagHasExtensions);

  // A request without a trace context encodes byte-identically to the
  // pre-extension wire format: no flag, no extension block.
  QueryRequest plain;
  plain.id = 100;
  plain.pattern = "A->B";
  std::string plain_frame;
  EncodeQueryRequest(plain, &plain_frame);
  dec.Append(plain_frame);
  ASSERT_TRUE(*dec.Next(&payload));
  QueryRequest plain_back;
  ASSERT_TRUE(DecodeQueryRequest(payload, &plain_back).ok());
  EXPECT_FALSE(plain_back.has_trace);
  EXPECT_EQ(plain_back.flags & net::kFlagHasExtensions, 0);
}

TEST(WireTest, MalformedExtensionsAreFramedErrors) {
  QueryRequest req;
  req.id = 5;
  req.pattern = "A->B";
  req.has_trace = true;
  req.trace_id = 1;
  std::string frame;
  EncodeQueryRequest(req, &frame);
  // Strip the length prefix: operate on the payload directly.
  std::string payload = frame.substr(4);

  // Unknown extension type -> InvalidArgument (never an assert).
  {
    std::string p = payload;
    p[p.size() - net::kExtTraceContextLen - 3] = 0x7f;  // the type byte
    QueryRequest back;
    Status st = DecodeQueryRequest(p, &back);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // Wrong trace-context length -> InvalidArgument.
  {
    std::string p = payload;
    // The u16 length sits right after the type byte.
    size_t len_at = p.size() - net::kExtTraceContextLen - 2;
    uint16_t bad = net::kExtTraceContextLen + 1;
    std::memcpy(p.data() + len_at, &bad, 2);
    QueryRequest back;
    Status st = DecodeQueryRequest(p, &back);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // Truncated extension payload -> InvalidArgument.
  for (size_t cut = 1; cut <= net::kExtTraceContextLen + 4; ++cut) {
    std::string p = payload.substr(0, payload.size() - cut);
    QueryRequest back;
    Status st = DecodeQueryRequest(p, &back);
    EXPECT_FALSE(st.ok()) << "cut=" << cut;
  }
  // Extensions flag set but no extension bytes at all -> error, because
  // the count byte itself is missing.
  {
    std::string p = payload.substr(0, payload.size() -
                                          (net::kExtTraceContextLen + 4));
    QueryRequest back;
    EXPECT_FALSE(DecodeQueryRequest(p, &back).ok());
  }
}

TEST(WireTest, ResponseRoundtripsRowsChecksumAndError) {
  QueryResponse rows_resp;
  rows_resp.id = 7;
  rows_resp.columns = {"A", "B"};
  rows_resp.rows = {{1, 2}, {3, 4}, {5, 6}};
  rows_resp.row_count = 3;
  std::string frame;
  EncodeQueryResponse(rows_resp, &frame);
  FrameDecoder dec;
  dec.Append(frame);
  std::string payload;
  ASSERT_TRUE(*dec.Next(&payload));
  QueryResponse back;
  ASSERT_TRUE(DecodeQueryResponse(payload, &back).ok());
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.columns, rows_resp.columns);
  EXPECT_EQ(back.rows, rows_resp.rows);

  QueryResponse sum_resp;
  sum_resp.id = 8;
  sum_resp.flags = net::kFlagChecksumOnly;
  sum_resp.columns = {"A"};
  sum_resp.row_count = 42;
  sum_resp.checksum = 0xdeadbeefcafe1234ull;
  frame.clear();
  EncodeQueryResponse(sum_resp, &frame);
  dec.Append(frame);
  ASSERT_TRUE(*dec.Next(&payload));
  ASSERT_TRUE(DecodeQueryResponse(payload, &back).ok());
  EXPECT_EQ(back.row_count, 42u);
  EXPECT_EQ(back.checksum, sum_resp.checksum);
  EXPECT_TRUE(back.rows.empty());

  QueryResponse err_resp;
  err_resp.id = 9;
  err_resp.code = StatusCode::kResourceExhausted;
  err_resp.error = "queue full";
  frame.clear();
  EncodeQueryResponse(err_resp, &frame);
  dec.Append(frame);
  ASSERT_TRUE(*dec.Next(&payload));
  ASSERT_TRUE(DecodeQueryResponse(payload, &back).ok());
  EXPECT_EQ(back.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(back.error, "queue full");
}

TEST(WireTest, RowSetChecksumIsOrderIndependent) {
  RowBlock a = {{1, 2}, {3, 4}, {9, 9}};
  RowBlock b = {{9, 9}, {1, 2}, {3, 4}};
  RowBlock c = {{1, 2}, {3, 5}, {9, 9}};
  EXPECT_EQ(RowSetChecksum(a), RowSetChecksum(b));
  EXPECT_NE(RowSetChecksum(a), RowSetChecksum(c));
  EXPECT_EQ(RowSetChecksum({}), 0u);
}

// The checksum is part of the wire contract (checksum-only replies) and
// of stored benchmark references: the value over a fixed row set is
// pinned. The constant was computed by the nested-vector checksum that
// the RowBlock overload replaced.
TEST(WireTest, RowSetChecksumIsStable) {
  const RowBlock rows = {
      {0, 9, 1}, {14, 19, 3}, {7, 7, 7}, {4294967295u, 0, 42}};
  EXPECT_EQ(RowSetChecksum(rows), 0xfcf405ab045d19f8ULL);
  const RowBlock reordered = {
      {7, 7, 7}, {4294967295u, 0, 42}, {0, 9, 1}, {14, 19, 3}};
  EXPECT_EQ(RowSetChecksum(reordered), 0xfcf405ab045d19f8ULL);
  RowBlock sorted = reordered;
  sorted.SortRows();
  EXPECT_EQ(RowSetChecksum(sorted), 0xfcf405ab045d19f8ULL);
}

// Row blocks of every width round-trip through one response frame, and
// the decoder still rejects frames whose row payload disagrees with
// row_count x ncols (or that claim rows without columns).
TEST(WireTest, ResponseRowBlocksRoundtrip) {
  for (size_t width : {0u, 1u, 3u}) {
    for (size_t n : {0u, 10000u}) {
      QueryResponse resp;
      resp.id = 100 + width * 10 + n;
      for (size_t c = 0; c < width; ++c) {
        resp.columns.push_back("L" + std::to_string(c));
      }
      resp.rows = RowBlock(width);
      if (width > 0) {
        uint32_t* ids = resp.rows.AppendUninitialized(n);
        for (size_t i = 0; i < n * width; ++i) {
          ids[i] = static_cast<uint32_t>(i * 2654435761u);
        }
      }
      resp.row_count = n;
      std::string frame;
      EncodeQueryResponse(resp, &frame);
      FrameDecoder dec;
      dec.Append(frame);
      std::string payload;
      ASSERT_TRUE(*dec.Next(&payload));
      QueryResponse back;
      const Status st = DecodeQueryResponse(payload, &back);
      if (width == 0 && n > 0) {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
        EXPECT_NE(st.message().find("rows without columns"),
                  std::string::npos);
        continue;
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(back.id, resp.id);
      EXPECT_EQ(back.columns, resp.columns);
      EXPECT_EQ(back.row_count, n);
      EXPECT_EQ(back.rows.width(), width);
      EXPECT_EQ(back.rows.size(), n);
      EXPECT_EQ(back.rows, resp.rows) << "width " << width << " rows " << n;
      if (n > 0) {
        // One id short: the implied payload no longer matches.
        payload.resize(payload.size() - sizeof(uint32_t));
        const Status cut = DecodeQueryResponse(payload, &back);
        EXPECT_NE(cut.message().find("row payload size mismatch"),
                  std::string::npos)
            << cut.ToString();
      }
    }
  }
}

TEST(FrameDecoderTest, ByteAtATimeAndPipelined) {
  QueryRequest req;
  req.id = 1;
  req.pattern = "A->B";
  std::string stream;
  EncodeQueryRequest(req, &stream);
  req.id = 2;
  EncodeQueryRequest(req, &stream);

  FrameDecoder dec;
  std::string payload;
  int frames = 0;
  for (char ch : stream) {
    dec.Append({&ch, 1});
    while (true) {
      auto has = dec.Next(&payload);
      ASSERT_TRUE(has.ok());
      if (!*has) break;
      QueryRequest back;
      ASSERT_TRUE(DecodeQueryRequest(payload, &back).ok());
      EXPECT_EQ(back.id, static_cast<uint64_t>(++frames));
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoderTest, OversizedLengthPoisonsTheStream) {
  FrameDecoder dec;
  uint32_t huge = net::kMaxFrameBytes + 1;
  char pfx[4];
  std::memcpy(pfx, &huge, 4);
  dec.Append({pfx, 4});
  std::string payload;
  auto r = dec.Next(&payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // Poisoned: every later call fails too, even with more bytes.
  dec.Append({pfx, 4});
  EXPECT_FALSE(dec.Next(&payload).ok());
}

TEST(FrameDecoderTest, FuzzRandomBytesNeverCrash) {
  Rng rng(0xfeedf00d);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder dec;
    std::string payload;
    size_t chunks = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < chunks; ++i) {
      std::string junk(rng.NextBounded(300), '\0');
      for (char& ch : junk) ch = static_cast<char>(rng.NextBounded(256));
      // Bias some rounds toward plausible small length prefixes so the
      // decoder yields frames that reach DecodeQueryRequest.
      if (junk.size() >= 4 && round % 3 == 0) {
        uint32_t len = static_cast<uint32_t>(rng.NextBounded(64));
        std::memcpy(junk.data(), &len, 4);
      }
      dec.Append(junk);
      while (true) {
        auto has = dec.Next(&payload);
        if (!has.ok() || !*has) break;
        QueryRequest req;
        QueryResponse resp;
        // Must return a Status, never crash or overflow.
        (void)DecodeQueryRequest(payload, &req);
        (void)DecodeQueryResponse(payload, &resp);
      }
    }
  }
}

TEST(FrameDecoderTest, FuzzTruncatedAndMutatedRealFrames) {
  Rng rng(0xabad1dea);
  QueryRequest req;
  req.id = 77;
  req.pattern = "L0->L1; L1->L2";
  std::string plain;
  EncodeQueryRequest(req, &plain);
  // Second base frame carries the trace-context extension so mutation and
  // truncation exercise the TLV parser (bad counts, bad types, bad lengths,
  // cut-off payloads). Every outcome must be a framed Status, never a crash.
  req.has_trace = true;
  req.trace_id = 0x1122334455667788ull;
  req.parent_span = 9;
  req.trace_sampled = true;
  std::string traced;
  EncodeQueryRequest(req, &traced);
  const std::string* bases[] = {&plain, &traced};
  for (int round = 0; round < 600; ++round) {
    std::string mutated = *bases[round % 2];
    size_t flips = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < flips; ++i) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    mutated.resize(1 + rng.NextBounded(mutated.size()));
    FrameDecoder dec;
    dec.Append(mutated);
    std::string payload;
    while (true) {
      auto has = dec.Next(&payload);
      if (!has.ok() || !*has) break;
      QueryRequest back;
      (void)DecodeQueryRequest(payload, &back);
    }
  }
}

// --- server end-to-end ------------------------------------------------------

TEST(ServerTest, DifferentialAcrossShardsEnginesStrategies) {
  struct Config {
    uint32_t shards;
    Engine engine;
    JoinStrategy js;
  };
  const Config configs[] = {
      {1, Engine::kDps, JoinStrategy::kHybrid},
      {1, Engine::kDp, JoinStrategy::kBinary},
      {1, Engine::kCanonical, JoinStrategy::kHybrid},
      {4, Engine::kDps, JoinStrategy::kBinary},
      {4, Engine::kDp, JoinStrategy::kHybrid},
      {4, Engine::kCanonical, JoinStrategy::kHybrid},
      {8, Engine::kDps, JoinStrategy::kHybrid},
      {8, Engine::kDp, JoinStrategy::kBinary},
  };
  for (const Config& cfg : configs) {
    ServerOptions opts;
    opts.num_shards = cfg.shards;
    opts.matcher.exec.join_strategy = cfg.js;
    ServerFixture f(opts);
    auto patterns = workload::RandomPatterns(f.g, 6, 3, 1, 101);
    auto client = f.Connect();
    uint64_t next_id = 1;
    for (const Pattern& p : patterns) {
      MatchOptions mo;
      mo.engine = cfg.engine;
      // The server re-parses the wire text, which renumbers pattern
      // nodes (and thus result columns) — run the direct matcher on the
      // same re-parsed pattern so both sides agree on column order.
      auto want = SortedRows(f.direct->Match(P(p.ToString()), mo));

      QueryRequest req;
      req.id = next_id++;
      req.engine = static_cast<uint8_t>(cfg.engine);
      req.pattern = p.ToString();
      auto resp = client->Query(req);
      ASSERT_TRUE(resp.ok()) << resp.status();
      ASSERT_TRUE(resp->ok()) << resp->error;
      EXPECT_EQ(resp->id, req.id);
      auto got = resp->rows;
      got.SortRows();
      EXPECT_EQ(got, want)
          << "shards=" << cfg.shards << " engine=" << EngineName(cfg.engine)
          << " pattern=" << p.ToString();

      // Checksum-only responses agree with the direct rows.
      req.id = next_id++;
      req.flags = net::kFlagChecksumOnly;
      auto sum = client->Query(req);
      ASSERT_TRUE(sum.ok()) << sum.status();
      ASSERT_TRUE(sum->ok()) << sum->error;
      EXPECT_EQ(sum->row_count, want.size());
      EXPECT_EQ(sum->checksum, RowSetChecksum(want));
      EXPECT_TRUE(sum->rows.empty());
    }
  }
}

TEST(ServerTest, PipelinedResponsesMatchById) {
  ServerOptions opts;
  opts.num_shards = 4;
  ServerFixture f(opts);
  auto patterns = workload::RandomPatterns(f.g, 10, 3, 1, 303);
  auto client = f.Connect();
  // Fire everything, then collect: responses may be reordered across
  // shards, ids pair them back up.
  for (size_t i = 0; i < patterns.size(); ++i) {
    QueryRequest req;
    req.id = i;
    req.flags = net::kFlagChecksumOnly;
    req.pattern = patterns[i].ToString();
    ASSERT_TRUE(client->Send(req).ok());
  }
  std::vector<bool> seen(patterns.size(), false);
  for (size_t i = 0; i < patterns.size(); ++i) {
    QueryResponse resp;
    ASSERT_TRUE(client->Recv(&resp).ok());
    ASSERT_TRUE(resp.ok()) << resp.error;
    ASSERT_LT(resp.id, patterns.size());
    EXPECT_FALSE(seen[resp.id]);
    seen[resp.id] = true;
    auto want = SortedRows(f.direct->Match(P(patterns[resp.id].ToString())));
    EXPECT_EQ(resp.row_count, want.size());
    EXPECT_EQ(resp.checksum, RowSetChecksum(want));
  }
}

TEST(ServerTest, MalformedInputsGetFramedErrorsNotAsserts) {
  ServerOptions opts;
  opts.num_shards = 2;
  ServerFixture f(opts);
  auto client = f.Connect();

  // 1. Unparseable pattern text.
  QueryRequest req;
  req.id = 1;
  req.pattern = "not a pattern !!!";
  auto resp = client->Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_FALSE(resp->ok());
  EXPECT_EQ(resp->id, 1u);

  // 2. Unknown engine value.
  req.id = 2;
  req.engine = 99;
  req.pattern = "L0->L1";
  resp = client->Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kInvalidArgument);

  // 3. Oversized pattern (wire-level cap).
  req.id = 3;
  req.engine = 0;
  req.pattern.assign(net::kMaxPatternBytes + 100, 'x');
  resp = client->Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kInvalidArgument);

  // 4. Truncated payload inside a well-sized frame: recoverable error.
  {
    std::string frame;
    uint32_t len = 5;
    frame.append(reinterpret_cast<const char*>(&len), 4);
    frame.append("\1\2\3\4\5", 5);
    size_t off = 0;
    while (off < frame.size()) {
      ssize_t n = write(client->fd(), frame.data() + off, frame.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
    QueryResponse err;
    ASSERT_TRUE(client->Recv(&err).ok());
    EXPECT_EQ(err.code, StatusCode::kInvalidArgument);
  }

  // 5. The connection survived all of the above.
  req.id = 5;
  req.pattern = "L0->L1";
  resp = client->Query(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->ok()) << resp->error;
  EXPECT_EQ(SortedRows(f.direct->Match(P("L0->L1"))).size(), resp->row_count);

  // 6. An oversized frame prefix is unrecoverable: framed Corruption
  // error, then the server closes the stream.
  {
    auto doomed = f.Connect();
    uint32_t huge = net::kMaxFrameBytes + 1;
    ASSERT_EQ(write(doomed->fd(), &huge, 4), 4);
    QueryResponse err;
    ASSERT_TRUE(doomed->Recv(&err).ok());
    EXPECT_EQ(err.code, StatusCode::kCorruption);
    // Server closes after the error frame: Recv now fails.
    EXPECT_FALSE(doomed->Recv(&err).ok());
  }
}

// A result whose full-row frame would exceed kMaxFrameBytes is answered
// with a framed ResourceExhausted instead of a frame the client's
// decoder must reject (which would poison the connection). The dense
// cyclic graph has one giant SCC, so the 6-label star pairs nearly
// every L0 node with every combination of the other labels: several
// hundred thousand 6-column rows, more than 8 MiB of ids. Wide rows
// keep the test's memory small for that many bytes.
TEST(ServerTest, OversizedResultIsFramedErrorAndConnectionSurvives) {
  constexpr const char* kStar = "L0->L1; L0->L2; L0->L3; L0->L4; L0->L5";
  Graph g = gen::ErdosRenyi(60, 220, 6, /*seed=*/3);
  auto direct = GraphMatcher::Create(&g);
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto want = (*direct)->Match(P(kStar));
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_GT(want->rows.size() * 6 * sizeof(NodeId), net::kMaxFrameBytes);
  const uint64_t want_checksum = RowSetChecksum(want->rows);
  const uint64_t want_rows = want->rows.size();
  want->rows = {};

  // One shard answers from its own matcher; over two shards the star
  // spans both and is gathered on the origin worker. Both paths cap.
  for (uint32_t shards : {1u, 2u}) {
    ServerOptions opts;
    opts.num_shards = shards;
    auto server = net::Server::Start(&g, opts);
    ASSERT_TRUE(server.ok()) << server.status();
    EXPECT_EQ((*server)->matcher()->Route(P(kStar)).has_value(), shards == 1);
    auto client = net::Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status();

    QueryRequest req;
    req.id = 1;
    req.pattern = kStar;
    auto resp = (*client)->Query(req);
    ASSERT_TRUE(resp.ok()) << "shards=" << shards << ": " << resp.status();
    EXPECT_EQ(resp->id, 1u);
    EXPECT_EQ(resp->code, StatusCode::kResourceExhausted) << resp->error;
    EXPECT_NE(resp->error.find("kFlagChecksumOnly"), std::string::npos)
        << resp->error;

    // The same connection still answers a small query...
    req.id = 2;
    req.pattern = "L0";
    resp = (*client)->Query(req);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->ok()) << resp->error;
    EXPECT_EQ(resp->rows, SortedRows((*direct)->Match(P("L0"))));

    // ...and the large one checksum-only.
    req.id = 3;
    req.pattern = kStar;
    req.flags = net::kFlagChecksumOnly;
    resp = (*client)->Query(req);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->ok()) << resp->error;
    EXPECT_EQ(resp->row_count, want_rows);
    EXPECT_EQ(resp->checksum, want_checksum);
  }
}

TEST(ServerTest, DeficitRoundRobinPreventsStarvation) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.dispatch_window = 1;  // sharpest fairness: one release at a time
  ServerFixture f(opts, /*num_labels=*/4, /*seed=*/7);

  auto greedy = f.Connect();
  auto polite = f.Connect();
  constexpr int kGreedy = 150, kPolite = 10;
  // Hold dispatch until both queues are loaded: otherwise how much of
  // the greedy burst runs before the polite batch even arrives depends
  // on thread timing, not on the scheduler under test.
  ServerWorkerHold hold;
  ASSERT_TRUE(hold.held()) << "server worker never picked up a morsel";
  // The greedy client pipelines its whole burst first...
  for (int i = 0; i < kGreedy; ++i) {
    QueryRequest req;
    req.id = static_cast<uint64_t>(i);
    req.flags = net::kFlagChecksumOnly;
    req.pattern = "L0->L1";
    ASSERT_TRUE(greedy->Send(req).ok());
  }
  // ...then the polite client sends a small batch.
  for (int i = 0; i < kPolite; ++i) {
    QueryRequest req;
    req.id = static_cast<uint64_t>(1000 + i);
    req.flags = net::kFlagChecksumOnly;
    req.pattern = "L0->L1";
    ASSERT_TRUE(polite->Send(req).ok());
  }
  hold.Release();

  std::atomic<int> greedy_done{0};
  std::thread greedy_rx([&] {
    QueryResponse resp;
    for (int i = 0; i < kGreedy; ++i) {
      if (!greedy->Recv(&resp).ok()) break;
      greedy_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  QueryResponse resp;
  for (int i = 0; i < kPolite; ++i) {
    ASSERT_TRUE(polite->Recv(&resp).ok());
    ASSERT_TRUE(resp.ok()) << resp.error;
  }
  // DRR interleaves the two queues one-for-one, so when the polite
  // client's 10 answers are in, the greedy client cannot have drained
  // its 150-deep queue. FIFO dispatch would finish all 150 first.
  int greedy_at_finish = greedy_done.load(std::memory_order_relaxed);
  EXPECT_LT(greedy_at_finish, kGreedy / 2)
      << "greedy client starved the polite one";
  greedy_rx.join();
}

TEST(ServerTest, AdmissionControlShedsLoadAndRecovers) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_queue = 8;
  opts.dispatch_window = 1;
  ServerFixture f(opts, /*num_labels=*/4, /*seed=*/7);

  auto client = f.Connect();
  constexpr int kBurst = 80;
  // Hold the worker while the burst is sent, so it decodes every frame
  // in one pass: the admission queue sees all 80 at once, whatever the
  // thread timing.
  ServerWorkerHold hold;
  ASSERT_TRUE(hold.held()) << "server worker never picked up a morsel";
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest req;
    req.id = static_cast<uint64_t>(i);
    req.flags = net::kFlagChecksumOnly;
    req.pattern = "L0->L1";
    ASSERT_TRUE(client->Send(req).ok());
  }
  hold.Release();
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    QueryResponse resp;
    ASSERT_TRUE(client->Recv(&resp).ok());
    if (resp.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(resp.code, StatusCode::kResourceExhausted) << resp.error;
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(shed, 0) << "a 10x overload burst must trip admission control";
  EXPECT_GT(ok, 0);
  // The server recovers: a fresh request succeeds.
  QueryRequest req;
  req.id = 9999;
  req.flags = net::kFlagChecksumOnly;
  req.pattern = "L0->L1";
  auto resp = client->Query(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok()) << resp->error;
}

TEST(ServerTest, BackpressurePausesReadsInsteadOfShedding) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.max_conn_queue = 4;  // tiny per-connection queue
  opts.max_queue = 1 << 20;  // admission never trips
  ServerFixture f(opts, /*num_labels=*/4, /*seed=*/7);
  auto client = f.Connect();
  constexpr int kBurst = 60;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest req;
    req.id = static_cast<uint64_t>(i);
    req.flags = net::kFlagChecksumOnly;
    req.pattern = "L0->L1";
    ASSERT_TRUE(client->Send(req).ok());
  }
  // Every request eventually succeeds — the server paused reads while
  // the queue was full rather than rejecting or buffering unboundedly.
  for (int i = 0; i < kBurst; ++i) {
    QueryResponse resp;
    ASSERT_TRUE(client->Recv(&resp).ok());
    EXPECT_TRUE(resp.ok()) << resp.error;
  }
}

TEST(ServerTest, ExpiredDeadlinesAreShedAtDispatch) {
  ServerOptions opts;
  opts.num_shards = 1;
  opts.dispatch_window = 1;
  ServerFixture f(opts, /*num_labels=*/4, /*seed=*/7, /*num_nodes=*/2000);
  // The head of the queue is a CPU-heavy star (about 61k rows); every
  // request behind it waits out its whole execution.
  const char* kHead = "L0->L1; L0->L2; L0->L3";
  WallTimer direct_timer;
  ASSERT_TRUE(f.direct->Match(kHead).ok());
  ASSERT_GT(direct_timer.ElapsedMillis(), 2.0)
      << "the head request must outlast the 1 ms deadlines behind it";

  auto client = f.Connect();
  constexpr int kBurst = 40;
  // Hold the worker while the burst is sent: every frame is decoded,
  // and its arrival stamped, in one pass after Release(). The burst
  // goes out in one write: frames written one by one can reach the
  // server's socket after its first read, and a frame stamped once the
  // head has finished would not expire.
  ServerWorkerHold hold;
  ASSERT_TRUE(hold.held()) << "server worker never picked up a morsel";
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest req;
    req.id = static_cast<uint64_t>(i);
    req.flags = net::kFlagChecksumOnly;
    if (i == 0) {
      req.pattern = kHead;  // no deadline
    } else {
      req.deadline_ms = 1;
      req.pattern = "L0->L1";
    }
    EncodeQueryRequest(req, &burst);
  }
  for (size_t off = 0; off < burst.size();) {
    const ssize_t n =
        write(client->fd(), burst.data() + off, burst.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
  hold.Release();
  int expired = 0, ok = 0;
  for (int i = 0; i < kBurst; ++i) {
    QueryResponse resp;
    ASSERT_TRUE(client->Recv(&resp).ok());
    if (resp.code == StatusCode::kDeadlineExceeded) {
      ++expired;
    } else if (resp.ok()) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, 1) << "only the head request should run";
  EXPECT_EQ(expired, kBurst - 1) << "every request behind it should expire";
}

TEST(ServerTest, HttpMetricsHealthzAndStats) {
  ServerOptions opts;
  opts.num_shards = 2;
  ServerFixture f(opts);
  // Generate one query so server counters exist and are nonzero.
  auto client = f.Connect();
  QueryRequest req;
  req.id = 1;
  req.flags = net::kFlagChecksumOnly;
  req.pattern = "L0->L1";
  auto resp = client->Query(req);
  ASSERT_TRUE(resp.ok());

  std::string metrics = HttpGet(f.server->port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("fgpm_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("fgpm_server_latency_us"), std::string::npos);

  std::string health = HttpGet(f.server->port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  std::string stats = HttpGet(f.server->port(), "/stats");
  EXPECT_NE(stats.find("application/json"), std::string::npos);

  std::string missing = HttpGet(f.server->port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(ServerTest, PerRequestTraceSpansRecorded) {
  ServerOptions opts;
  opts.num_shards = 2;
  opts.trace_requests = true;
  ServerFixture f(opts);
  auto client = f.Connect();
  QueryRequest req;
  req.id = 42;
  req.pattern = "L0->L1";
  auto resp = client->Query(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp->ok()) << resp->error;

  auto traces = f.server->RecentTraces();
  ASSERT_FALSE(traces.empty());
  const QueryTrace& t = traces.back();
  ASSERT_GE(t.spans().size(), 3u);  // root + queue + exec
  EXPECT_EQ(t.spans()[0].name, "L0->L1");
  EXPECT_EQ(t.spans()[0].category, "server");
  bool has_queue = false, has_exec = false;
  for (const TraceSpan& s : t.spans()) {
    if (s.name == "queue") has_queue = true;
    if (s.name == "exec") has_exec = true;
  }
  EXPECT_TRUE(has_queue);
  EXPECT_TRUE(has_exec);
  ASSERT_NE(t.spans()[0].FindArg("rows"), nullptr);
}

}  // namespace
}  // namespace fgpm
