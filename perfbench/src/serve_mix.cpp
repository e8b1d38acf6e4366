// serve_mix: routesim_serve on a Unix socket, driven in a closed loop by
// this process over a fixed number of connections.  Each pass sends a fixed
// mix — repeats answered from the cache, keys seeded into the store file
// before the daemon started, fresh scenarios the daemon computes and
// persists, and pairs of connections sending one fresh key at once — and
// checks every reply's tier against the design.
//
// The shares are chosen so that each latency quantile lands inside one
// tier.  Cache and store replies cost about the same (the protocol
// dominates), computed ones are ~100x slower.  The store tier is more than
// half of the replies and the cache tier less than half, so the median
// falls inside the store tier whichever of the two is faster.  The
// computed tier (fresh keys plus pairs) is 4.6% of the replies, so the 99th
// percentile falls about a quarter of the way down into it.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "serve/service.hpp"
#include "store/result_store.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

using routesim::RunResult;
using routesim::Scenario;

// The designed mix of one pass: 80 + 128 + 8 + 2 = 218 replies, of which
// 36.7% cache, 58.7% store, 3.7% computed and 0.9% pair replies.
constexpr int kCacheRepeats = 80;   // over kWarmKeys keys already in the cache
constexpr int kStoreKeys = 128;     // distinct keys per pass, seeded into the store
constexpr int kFreshKeys = 8;       // computed and fsync-persisted by the daemon
constexpr int kWarmKeys = 8;
constexpr int kMaxConnections = 2;  // closed-loop clients; 4 oversubscribed 4 CPUs
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 192;     // bounded by the store keys seeded per run
constexpr int kSetups = 21;         // daemon starts timed for setup_s
constexpr double kReplyTimeoutS = 60.0;
constexpr int kSampledStoreKeys = 4;  // store keys checked against the in-process answer

// Seeds of the serve keys: a per-run base in the high bits and the key's
// index in the low 24, so two keys of one kind never share a seed (hashing
// every index instead would collide among ~25k store keys now and then).
std::string key_seed(std::uint64_t seed, int kind, int index) {
  return std::to_string((item_seed(seed, 10000 + static_cast<std::uint64_t>(kind)) << 24) |
                        static_cast<std::uint64_t>(index));
}

std::string warm_text(std::uint64_t seed, int i) {
  return "hypercube_greedy d=4 rho=0.3 reps=2 measure=100 seed=" + key_seed(seed, 0, i);
}
// Small, so the fixture of kMaxPasses * kStoreKeys records is quick to make.
std::string store_text(std::uint64_t seed, int pass, int i) {
  return "hypercube_greedy d=3 rho=0.4 reps=1 measure=30 seed=" +
         key_seed(seed, 1, pass * kStoreKeys + i);
}
// Fresh and pair keys have one text, so they share a kind and take
// disjoint index ranges.  Tens of ms of work: the second of a pair always
// arrives while the first computes.
std::string fresh_text(std::uint64_t seed, int pass, int i) {
  return "hypercube_greedy d=6 rho=0.5 reps=4 measure=300 seed=" +
         key_seed(seed, 2, pass * kFreshKeys + i);
}
std::string pair_text(std::uint64_t seed, int pass, int i) {
  return "hypercube_greedy d=6 rho=0.5 reps=4 measure=300 seed=" +
         key_seed(seed, 2, kMaxPasses * kFreshKeys + pass * kMaxConnections + i);
}

enum class Tier { kCache, kStore, kComputed };

struct Item {
  std::string text;
  Tier tier;
};

/// One reply: the raw line and its latency, taken in the closed loop, and
/// the parsed fields, filled in after the pass.
struct Reply {
  std::string line;
  double latency_s = 0.0;
  bool ok = false;
  std::string source;
  std::string result;  // result_text of the parsed RunResult
  double hop_events = 0.0;
  double deliveries = 0.0;
};

// ------------------------------------------------------------ connections

class Connection {
 public:
  /// Connects to the daemon's socket; connected() tells whether it worked.
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval timeout{static_cast<time_t>(kReplyTimeoutS), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Sends one request line and reads one reply line; false on error or
  /// timeout.
  bool call(const std::string& request, std::string* reply) {
    const std::string line = request + "\n";
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *reply = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string query_line(const std::string& text) {
  return "{\"op\":\"query\",\"scenario\":\"" + text + "\"}";
}

Reply timed_query(Connection& connection, const std::string& text) {
  Reply reply;
  const double t0 = now_s();
  if (!connection.call(query_line(text), &reply.line)) reply.line.clear();
  reply.latency_s = now_s() - t0;
  return reply;
}

/// Fills the parsed fields of a reply to the query `text`.
void parse_reply(const std::string& text, Reply& reply) {
  routesim::json::Value value;
  if (!routesim::json::parse(reply.line, &value)) return;
  const auto* ok = value.find("ok");
  const auto* source = value.find("source");
  const auto* result = value.find("result");
  RunResult parsed;
  if (ok == nullptr || !ok->boolean || source == nullptr || result == nullptr ||
      !routesim::result_from_json(*result, &parsed)) {
    return;
  }
  reply.ok = true;
  reply.source = source->string;
  reply.result = result_text(parsed);
  const Scenario resolved = parse_scenario(text).resolved();
  reply.hop_events = computed_hop_events(resolved, parsed);
  reply.deliveries = computed_deliveries(resolved, parsed);
}

// ------------------------------------------------------------------ daemon

class Daemon {
 public:
  Daemon(const Options& options, const std::string& store_path,
         const std::string& socket_path)
      : socket_path_(socket_path) {
    const std::string threads = std::to_string(options.pool_width);
    const std::string log = options.work_dir + "/daemon.log";
    std::vector<std::string> args = {options.serve_bin, "--store", store_path,
                                     "--socket", socket_path, "--threads", threads};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + options.serve_bin);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Polls until the daemon answers a ping; false after `timeout_s`.
  bool wait_ready(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
      Connection connection(socket_path_);
      std::string reply;
      if (connection.connected() && connection.call("{\"op\":\"ping\"}", &reply) &&
          reply.find("\"ok\":true") != std::string::npos) {
        return true;
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(1000);
    }
    return false;
  }

  /// User + system CPU seconds of the daemon so far.
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const auto close = text.rfind(')');
    if (close == std::string::npos) return std::nan("");
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    // Fields after the command name start at field 3; utime/stime are 14/15.
    for (int index = 3; fields >> field && index <= 15; ++index) {
      if (index >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set of the daemon in MB (VmHWM).
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return std::nan("");
  }

  /// Asks the daemon to shut down and reaps it (killing it after 10 s).
  void stop() {
    if (pid_ <= 0) return;
    {
      Connection connection(socket_path_);
      std::string reply;
      if (connection.connected()) (void)connection.call("{\"op\":\"shutdown\"}", &reply);
    }
    const double deadline = now_s() + 10.0;
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

// ------------------------------------------------------------------ passes

struct Pass {
  double wall_s = 0.0;
  std::vector<Item> items;      // mixed phase, in designed order
  std::vector<Reply> replies;   // index-aligned with items
  std::vector<std::string> pair_texts;
  std::vector<Reply> pair_replies;  // two per pair
};

std::vector<Item> pass_items(std::uint64_t seed, int pass) {
  std::vector<Item> items;
  for (int i = 0; i < kCacheRepeats; ++i) items.push_back({warm_text(seed, i % kWarmKeys), Tier::kCache});
  for (int i = 0; i < kStoreKeys; ++i) items.push_back({store_text(seed, pass, i), Tier::kStore});
  for (int i = 0; i < kFreshKeys; ++i) items.push_back({fresh_text(seed, pass, i), Tier::kComputed});
  routesim::Rng rng(item_seed(seed, 50000 + pass));
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_below(i)]);
  }
  return items;
}

Pass run_pass(std::vector<std::unique_ptr<Connection>>& connections,
              std::uint64_t seed, int pass_index) {
  Pass pass;
  pass.items = pass_items(seed, pass_index);
  pass.replies.resize(pass.items.size());
  const int clients = static_cast<int>(connections.size());
  const int pairs = clients / 2;
  for (int i = 0; i < pairs; ++i) pass.pair_texts.push_back(pair_text(seed, pass_index, i));
  pass.pair_replies.resize(2 * static_cast<std::size_t>(pairs));

  const double t0 = now_s();
  // Mixed phase: every connection takes the next item when its previous
  // reply arrives (closed loop).
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= pass.items.size()) break;
          pass.replies[i] = timed_query(*connections[static_cast<std::size_t>(c)],
                                        pass.items[i].text);
        }
      });
    }
  }
  // Pair phase: connections 2k and 2k+1 send pair k's key at once.
  {
    std::vector<std::unique_ptr<std::latch>> starts;
    for (int i = 0; i < pairs; ++i) starts.push_back(std::make_unique<std::latch>(2));
    std::vector<std::jthread> threads;
    for (int c = 0; c < 2 * pairs; ++c) {
      threads.emplace_back([&, c] {
        starts[static_cast<std::size_t>(c / 2)]->arrive_and_wait();
        pass.pair_replies[static_cast<std::size_t>(c)] = timed_query(
            *connections[static_cast<std::size_t>(c)],
            pass.pair_texts[static_cast<std::size_t>(c / 2)]);
      });
    }
  }
  pass.wall_s = now_s() - t0;
  return pass;
}

/// Parses every reply of a pass.  Cache-tier replies repeat a few lines
/// many times, so each distinct line is parsed once.
void parse_pass(Pass& pass, std::map<std::string, Reply>& cache_lines) {
  for (std::size_t i = 0; i < pass.items.size(); ++i) {
    Reply& reply = pass.replies[i];
    if (pass.items[i].tier != Tier::kCache) {
      parse_reply(pass.items[i].text, reply);
      continue;
    }
    auto it = cache_lines.find(reply.line);
    if (it == cache_lines.end()) {
      parse_reply(pass.items[i].text, reply);
      it = cache_lines.emplace(reply.line, reply).first;
    }
    reply.ok = it->second.ok;
    reply.source = it->second.source;
    reply.result = it->second.result;
  }
  for (std::size_t k = 0; k < pass.pair_replies.size(); ++k) {
    parse_reply(pass.pair_texts[k / 2], pass.pair_replies[k]);
  }
}

/// Hop-events and deliveries of the cells the daemon computed in a pass:
/// the fresh keys and one reply per pair.
std::pair<double, double> computed_tier_totals(const Pass& pass) {
  double hop_events = 0.0;
  double deliveries = 0.0;
  for (std::size_t i = 0; i < pass.items.size(); ++i) {
    if (pass.items[i].tier != Tier::kComputed) continue;
    hop_events += pass.replies[i].hop_events;
    deliveries += pass.replies[i].deliveries;
  }
  for (std::size_t k = 0; k < pass.pair_replies.size(); k += 2) {
    hop_events += pass.pair_replies[k].hop_events;
    deliveries += pass.pair_replies[k].deliveries;
  }
  return {hop_events, deliveries};
}

const char* expected_source(Tier tier) {
  switch (tier) {
    case Tier::kCache: return "cache";
    case Tier::kStore: return "store";
    case Tier::kComputed: return "computed";
  }
  return "";
}

/// Checks every reply of a pass against its designed tier; counts
/// operations and failures.
void check_pass(const Pass& pass, std::map<std::string, std::string>& answers,
                Report& report) {
  const auto consistent = [&](const std::string& text, const Reply& reply) {
    const auto [it, inserted] = answers.emplace(text, reply.result);
    if (!inserted && it->second != reply.result) {
      report.fail("two answers for one key differ: " + text);
    }
  };
  for (std::size_t i = 0; i < pass.items.size(); ++i) {
    ++report.attempted;
    const Reply& reply = pass.replies[i];
    if (!reply.ok) {
      report.fail("query failed or timed out: " + pass.items[i].text);
    } else if (reply.source != expected_source(pass.items[i].tier)) {
      report.fail("expected tier " + std::string(expected_source(pass.items[i].tier)) +
                  ", got " + reply.source + ": " + pass.items[i].text);
    } else {
      consistent(pass.items[i].text, reply);
    }
  }
  for (std::size_t k = 0; k < pass.pair_texts.size(); ++k) {
    const Reply& a = pass.pair_replies[2 * k];
    const Reply& b = pass.pair_replies[2 * k + 1];
    report.attempted += 2;
    if (!a.ok || !b.ok) {
      report.fail("pair query failed or timed out: " + pass.pair_texts[k]);
      continue;
    }
    const bool coalesced = (a.source == "computed" && b.source == "inflight") ||
                           (a.source == "inflight" && b.source == "computed");
    if (!coalesced) {
      report.fail("pair not coalesced (" + a.source + ", " + b.source + "): " +
                  pass.pair_texts[k]);
    }
    consistent(pass.pair_texts[k], a);
    consistent(pass.pair_texts[k], b);
  }
}

/// Computes the warm and store keys in process and writes them as a store
/// file the daemon loads at start.
void write_store_fixture(const Options& options, const std::string& path) {
  routesim::Campaign campaign("serve_fixture");
  for (int i = 0; i < kWarmKeys; ++i) campaign.add(parse_scenario(warm_text(options.seed, i)));
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    for (int i = 0; i < kStoreKeys; ++i) {
      campaign.add(parse_scenario(store_text(options.seed, pass, i)));
    }
  }
  routesim::EngineOptions engine;
  engine.threads = options.pool_width;
  const auto cells = routesim::Engine(engine).run(campaign);
  std::ofstream out(path, std::ios::trunc);
  for (const auto& cell : cells) {
    out << routesim::store_record_json(routesim::ResultCache::key(cell.scenario),
                                       cell.scenario, cell.result)
        << '\n';
  }
  if (!out) throw std::runtime_error("cannot write store fixture " + path);
}

/// Reads the daemon's stats op as name -> count.
std::map<std::string, double> daemon_stats(const std::string& socket_path) {
  std::map<std::string, double> stats;
  Connection connection(socket_path);
  std::string line;
  routesim::json::Value value;
  if (!connection.connected() || !connection.call("{\"op\":\"stats\"}", &line) ||
      !routesim::json::parse(line, &value)) {
    return stats;
  }
  for (const auto& [key, field] : value.object) {
    if (field.is_number()) stats[key] = field.number;
  }
  return stats;
}

/// Compares a sample of the daemon's answers bit for bit against the
/// in-process QueryService.
void check_sample(const Options& options, const Pass& first,
                  const std::map<std::string, std::string>& answers, Report& report) {
  std::vector<std::string> sample = first.pair_texts;
  for (int i = 0; i < kFreshKeys; ++i) sample.push_back(fresh_text(options.seed, 0, i));
  for (int i = 0; i < kSampledStoreKeys; ++i) sample.push_back(store_text(options.seed, 0, i));
  sample.push_back(warm_text(options.seed, 0));
  routesim::serve::QueryService service({options.pool_width, nullptr});
  for (const std::string& text : sample) {
    ++report.attempted;
    const auto local = service.query(parse_scenario(text));
    const auto it = answers.find(text);
    if (!local.ok || it == answers.end() || it->second != result_text(local.result)) {
      report.fail("daemon answer differs from in-process query: " + text);
    }
  }
}

/// Span metrics of the engine on the computed tier: the first pass's fresh
/// scenarios as one traced in-process campaign.
void computed_tier_spans(const Options& options, Report& report) {
  routesim::Campaign campaign("serve_computed");
  for (int i = 0; i < kFreshKeys; ++i) campaign.add(parse_scenario(fresh_text(options.seed, 0, i)));
  routesim::obs::TraceSession session;
  routesim::EngineOptions engine;
  engine.threads = options.pool_width;
  engine.trace = &session;
  (void)routesim::Engine(engine).run(campaign);
  SpanSummary s;
  if (!summarize_spans(session, options.pool_width, &s) || s.replications == 0) {
    report.fail("engine trace did not parse into spans");
    return;
  }
  const double cells = static_cast<double>(campaign.size());
  report.add("core.compile_ms", 1e3 * s.compile_s, "ms", 1);
  report.add("core.replication_busy_frac", s.replication_s / (s.campaign_s * options.pool_width),
             "ratio", 1);
  report.add("core.tail_idle_s", s.tail_idle_s, "s", 1);
  report.add("core.assemble_us_per_cell", 1e6 * s.assemble_s / cells, "us", 1);
  report.add("core.sink_flush_us_per_cell", 1e6 * s.flush_s / cells, "us", 1);
}

}  // namespace

void run_serve_mix(const Options& options, Report& report) {
  const int clients = std::min(options.pool_width, kMaxConnections);
  if (clients < 2) throw std::runtime_error("serve_mix needs at least 2 CPUs for its pairs");
  const std::string store_path = options.work_dir + "/store.jsonl";
  const std::string socket_path = options.work_dir + "/serve.sock";
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  write_store_fixture(options, store_path);

  // Set-up: daemon start (store load included) to its first ping reply,
  // several times; the last daemon serves the measurement.
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  const int setups = options.trace ? 3 : kSetups;
  for (int i = 0; i < setups; ++i) {
    daemon.reset();
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(options, store_path, socket_path);
    if (!daemon->wait_ready(30.0)) throw std::runtime_error("daemon did not answer ping");
    setup_times.push_back(now_s() - t0);
  }

  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < clients; ++c) {
    connections.push_back(std::make_unique<Connection>(socket_path));
    if (!connections.back()->connected()) throw std::runtime_error("cannot connect");
  }
  // Warm the cache tier: each warm key is a store hit once, then cached.
  for (int i = 0; i < kWarmKeys; ++i) {
    Reply reply = timed_query(*connections[0], warm_text(options.seed, i));
    parse_reply(warm_text(options.seed, i), reply);
    ++report.attempted;
    if (!reply.ok || reply.source != "store") report.fail("warm-up query not a store hit");
  }

  const double start = now_s();
  if (options.trace) run_probes(options, report);

  const auto walls = [](const std::vector<Pass>& list) {
    std::vector<double> out;
    for (const Pass& p : list) out.push_back(p.wall_s);
    return out;
  };
  std::vector<Pass> plain;
  std::map<std::string, std::string> answers;
  std::map<std::string, Reply> cache_lines;
  double computed_hop_events_total = 0.0;
  const double cpu0 = daemon->cpu_s();
  while (plain.size() < static_cast<std::size_t>(kMaxPasses) &&
         (plain.size() < kMinPasses ||
          now_s() - start + median(walls(plain)) <= options.seconds)) {
    Pass pass = run_pass(connections, options.seed, static_cast<int>(plain.size()));
    parse_pass(pass, cache_lines);
    check_pass(pass, answers, report);
    computed_hop_events_total += computed_tier_totals(pass).first;
    plain.push_back(std::move(pass));
  }
  const double passes = static_cast<double>(plain.size());
  const double daemon_cpu = daemon->cpu_s() - cpu0;
  const double daemon_rss = daemon->peak_rss_mb();
  const int pairs = clients / 2;

  // The daemon's own counters must equal the designed mix exactly.
  const auto stats = daemon_stats(socket_path);
  const double n = passes;
  const std::map<std::string, double> designed = {
      {"queries", kWarmKeys + n * (kCacheRepeats + kStoreKeys + kFreshKeys + 2 * pairs)},
      {"cache_hits", n * kCacheRepeats},
      {"store_hits", kWarmKeys + n * kStoreKeys},
      {"computed", n * (kFreshKeys + pairs)},
      {"coalesced", n * pairs},
      {"errors", 0.0}};
  for (const auto& [name, want] : designed) {
    const auto it = stats.find(name);
    if (it == stats.end() || it->second != want) {
      report.fail("daemon stats " + name + " = " +
                  (it == stats.end() ? std::string("missing") : std::to_string(it->second)) +
                  ", designed " + std::to_string(want));
    }
  }
  connections.clear();
  daemon->stop();
  std::filesystem::remove(store_path);

  const Pass& first = plain.front();
  check_sample(options, first, answers, report);

  // Digest and counts come from the first pass, whose keys depend only on
  // the seed.
  Digest digest;
  for (std::size_t i = 0; i < first.items.size(); ++i) {
    digest.add(first.items[i].text + "=" + first.replies[i].result);
  }
  for (std::size_t k = 0; k < first.pair_texts.size(); ++k) {
    digest.add(first.pair_texts[k] + "=" + first.pair_replies[2 * k].result);
  }
  report.digest = digest.hex();
  const auto [hop_events, deliveries] = computed_tier_totals(first);
  const auto add_counts = [&] {
    report.add("count.hop_events", std::round(hop_events), "count", 1);
    report.add("count.packets_delivered", std::round(deliveries), "count", 1);
    report.add("count.replications", 4.0 * (kFreshKeys + pairs), "count", 1);
    report.add("count.cells_computed", kFreshKeys + pairs, "count", 1);
    report.add("count.serve_cache_hits", kCacheRepeats, "count", 1);
    report.add("count.serve_store_hits", kStoreKeys, "count", 1);
    report.add("count.serve_computed", kFreshKeys + pairs, "count", 1);
    report.add("count.serve_coalesced", pairs, "count", 1);
  };

  if (!options.trace) {
    std::vector<double> latencies;
    std::vector<double> rates;
    for (const Pass& pass : plain) {
      for (const Reply& reply : pass.replies) latencies.push_back(reply.latency_s);
      for (const Reply& reply : pass.pair_replies) latencies.push_back(reply.latency_s);
      rates.push_back(static_cast<double>(pass.replies.size() + pass.pair_replies.size()) /
                      pass.wall_s);
    }
    report.add("setup_s", median(setup_times), "s", setup_times.size());
    report.add("wall_s", median(walls(plain)), "s", plain.size());
    report.add("cpu_ns_per_hop_event", 1e9 * daemon_cpu / computed_hop_events_total, "ns",
               plain.size());
    report.add("peak_rss_mb", daemon_rss, "MB", 1);
    report.add("queries_per_s", median(rates), "1/s", rates.size());
    report.add("query_p50_ms", 1e3 * quantile(latencies, 0.50), "ms", latencies.size());
    report.add("query_p99_ms", 1e3 * quantile(latencies, 0.99), "ms", latencies.size());
    add_counts();
    return;
  }

  computed_tier_spans(options, report);
  // The daemon runs untraced whatever --trace says, so there is no tracing
  // overhead of routesim's to measure here.
  report.add("obs.trace_overhead_pct", 0.0, "%", 0);
  std::map<std::string, std::vector<double>> by_source;
  for (const Pass& pass : plain) {
    for (const Reply& reply : pass.replies) by_source[reply.source].push_back(reply.latency_s);
    for (const Reply& reply : pass.pair_replies) by_source[reply.source].push_back(reply.latency_s);
  }
  // Each tier's share of the replies and of the summed client latency.
  double total_latency = 0.0;
  std::size_t total_replies = 0;
  for (const auto& [source, latencies] : by_source) {
    for (const double latency : latencies) total_latency += latency;
    total_replies += latencies.size();
  }
  for (const auto& [source, latencies] : by_source) {
    double sum = 0.0;
    for (const double latency : latencies) sum += latency;
    std::fprintf(stderr, "perfbench: tier %-8s %5.1f%% of replies, %5.1f%% of latency\n",
                 source.c_str(), 100.0 * static_cast<double>(latencies.size()) /
                                     static_cast<double>(total_replies),
                 100.0 * sum / total_latency);
  }
  report.add("serve.cache_p50_us", 1e6 * median(by_source["cache"]), "us",
             by_source["cache"].size());
  report.add("serve.store_p50_us", 1e6 * median(by_source["store"]), "us",
             by_source["store"].size());
  report.add("serve.computed_p50_ms", 1e3 * median(by_source["computed"]), "ms",
             by_source["computed"].size());
  report.add("serve.inflight_p50_ms", 1e3 * median(by_source["inflight"]), "ms",
             by_source["inflight"].size());
  add_counts();
}

}  // namespace perfbench
