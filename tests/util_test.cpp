#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/spec.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace manetcap {
namespace {

// ---------------------------------------------------------------- check --

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(MANETCAP_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(MANETCAP_CHECK(false), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    MANETCAP_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, ErrorNamesFileAndCondition) {
  try {
    MANETCAP_CHECK(2 < 1);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

// ---------------------------------------------------------------- table --

TEST(Table, AlignsColumns) {
  util::Table t({"a", "long-header"});
  t.add_row({"xxxxxx", "1"});
  const std::string out = t.to_string();
  // Both rows must have equal length lines (alignment).
  std::istringstream is(out);
  std::string l1, l2, l3;
  std::getline(is, l1);
  std::getline(is, l2);
  std::getline(is, l3);
  EXPECT_EQ(l1.size(), l3.size());
}

TEST(Table, RejectsWrongCellCount) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, SeparatorRendersRule) {
  util::Table t({"h"});
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  EXPECT_NE(t.to_string().find("---"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 3u);  // separator counts as a row slot
}

TEST(Table, FmtDouble) {
  EXPECT_EQ(util::fmt_double(1.23456, 3), "1.23");
  EXPECT_EQ(util::fmt_sci(0.000123, 2).substr(0, 4), "1.23");
}

// ------------------------------------------------------------------ csv --

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(util::csv_escape("plain"), "plain");
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/manetcap_csv_test.csv";
  {
    util::CsvWriter w(path, {"n", "lambda"});
    w.add_row({"10", "0.5"});
    w.add_row({"20", "0.25"});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "n,lambda");
  std::getline(in, line);
  EXPECT_EQ(line, "10,0.5");
  std::remove(path.c_str());
}

TEST(Csv, RowLengthMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/manetcap_csv_test2.csv";
  util::CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.add_row({"1"}), CheckError);
  std::remove(path.c_str());
}

TEST(Csv, UnopenablePathThrowsNamingThePath) {
  const std::string path =
      ::testing::TempDir() + "/no_such_dir_manetcap/out.csv";
  try {
    util::CsvWriter w(path, {"a"});
    FAIL() << "expected runtime_error for unopenable path";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(Csv, WriteFailureSurfacesImmediately) {
  // Regression: CsvWriter used to buffer through std::ofstream and never
  // check the stream, so a full disk silently produced a truncated CSV
  // while the bench reported success. Every add_row now flushes and
  // checks. /dev/full accepts the open and fails every flush with ENOSPC
  // — the canonical disk-full simulation; skip where it is absent.
  std::ofstream probe("/dev/full");
  if (!probe.is_open()) GTEST_SKIP() << "/dev/full not available";
  try {
    // The header flush in the constructor may already fail; if the libc
    // defers it, the first row's flush must.
    util::CsvWriter w("/dev/full", {"a", "b"});
    w.add_row({"1", "2"});
    FAIL() << "expected runtime_error on disk-full write";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(Csv, AddRowAfterCloseThrows) {
  const std::string path = ::testing::TempDir() + "/manetcap_csv_close.csv";
  util::CsvWriter w(path, {"a"});
  w.add_row({"1"});
  w.close();
  EXPECT_THROW(w.add_row({"2"}), CheckError);
  w.close();  // idempotent: closing twice is a no-op
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- flags --

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=100", "--alpha", "0.5", "--verbose"};
  util::Flags f(5, argv, {"n", "alpha", "verbose"});
  EXPECT_EQ(f.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  util::Flags f(1, argv, {"n"});
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_FALSE(f.has("n"));
}

TEST(Flags, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(util::Flags(2, argv, {"n"}), std::runtime_error);
}

TEST(Flags, PositionalArgumentsCollected) {
  const char* argv[] = {"prog", "file1", "--n=1", "file2"};
  util::Flags f(4, argv, {"n"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "file1");
  EXPECT_EQ(f.positional()[1], "file2");
}

TEST(Flags, BadIntValueNamesFlagAndValue) {
  const char* argv[] = {"prog", "--n=abc"};
  util::Flags f(2, argv, {"n"});
  try {
    f.get_int("n", 0);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--n"), std::string::npos);
    EXPECT_NE(what.find("abc"), std::string::npos);
  }
}

TEST(Flags, BadDoubleValueNamesFlagAndValue) {
  const char* argv[] = {"prog", "--alpha=zero"};
  util::Flags f(2, argv, {"alpha"});
  try {
    f.get_double("alpha", 0.0);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--alpha"), std::string::npos);
    EXPECT_NE(what.find("zero"), std::string::npos);
  }
}

TEST(Flags, TrailingGarbageRejected) {
  const char* argv[] = {"prog", "--n=12x", "--alpha=0.5y"};
  util::Flags f(3, argv, {"n", "alpha"});
  EXPECT_THROW(f.get_int("n", 0), std::runtime_error);
  EXPECT_THROW(f.get_double("alpha", 0.0), std::runtime_error);
}

TEST(Flags, OutOfRangeIntRejected) {
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  util::Flags f(2, argv, {"n"});
  EXPECT_THROW(f.get_int("n", 0), std::runtime_error);
}

// A negative count must not wrap to a huge std::size_t: `--shards -1`
// once reached the simulator as SIZE_MAX and ran no shard at all.
TEST(Flags, NegativeCountRejectedWithNamedError) {
  const char* argv[] = {"prog", "--shards", "-1", "--n=0", "--slots=300"};
  util::Flags f(5, argv, {"shards", "n", "slots", "count"});
  try {
    f.get_count("shards", 1);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad value for --shards: -1");
  }
  EXPECT_EQ(f.get_count("n", 7), 0u);
  EXPECT_EQ(f.get_count("slots", 7), 300u);
  EXPECT_EQ(f.get_count("count", 7), 7u);
}

// stod parses "nan"/"inf" into values that poison every downstream
// comparison without ever tripping a range check; get_double must reject
// them with the same `bad value for --<name>: <value>` shape as any other
// malformed number.
TEST(Flags, NonFiniteDoubleRejectedWithNamedError) {
  const char* spellings[] = {"nan",  "NaN",  "-nan", "inf",
                             "Inf",  "-inf", "INFINITY"};
  for (const char* s : spellings) {
    const std::string arg = std::string("--alpha=") + s;
    const char* argv[] = {"prog", arg.c_str()};
    util::Flags f(2, argv, {"alpha"});
    try {
      f.get_double("alpha", 0.0);
      FAIL() << "expected throw for " << s;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad value for --alpha"), std::string::npos) << s;
      EXPECT_NE(what.find(s), std::string::npos) << s;
    }
  }
  // Finite values, including huge-but-representable ones, still parse.
  const char* argv[] = {"prog", "--alpha=1e300"};
  util::Flags f(2, argv, {"alpha"});
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 0.0), 1e300);
}

// ---------------------------------------------------------- thread pool --

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(util::ThreadPool::default_num_threads(), 1u);

  // MANETCAP_THREADS is outside input: 0 means all cores, [1, 1024] is
  // taken as given, anything else is a named error. Only the parse runs
  // here; no pool is built, so no thread starts.
  const char* saved = std::getenv("MANETCAP_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t all_cores = hw == 0 ? 1 : hw;
  ::setenv("MANETCAP_THREADS", "4", 1);
  EXPECT_EQ(util::ThreadPool::default_num_threads(), 4u);
  ::setenv("MANETCAP_THREADS", "1024", 1);
  EXPECT_EQ(util::ThreadPool::default_num_threads(), 1024u);
  ::setenv("MANETCAP_THREADS", "0", 1);
  EXPECT_EQ(util::ThreadPool::default_num_threads(), all_cores);
  for (const char* bad : {"4x", "-2", "1025"}) {
    ::setenv("MANETCAP_THREADS", bad, 1);
    try {
      util::ThreadPool::default_num_threads();
      ADD_FAILURE() << "expected throw for " << bad;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MANETCAP_THREADS"), std::string::npos) << bad;
      EXPECT_NE(what.find(bad), std::string::npos) << bad;
    }
  }
  if (saved != nullptr)
    ::setenv("MANETCAP_THREADS", restore.c_str(), 1);
  else
    ::unsetenv("MANETCAP_THREADS");
}

TEST(ThreadPool, ParallelForExecutesEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Zero-count fan-out is a no-op, not a hang.
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  // Every index runs once whatever the shape of the group: a single-worker
  // pool and a wider one, a width of 1 (the caller alone), widths below and
  // above the pool's W+1 runners, and counts below and above the runner
  // count.
  for (const std::size_t workers : std::vector<std::size_t>{1, 3}) {
    util::ThreadPool pool(workers);
    for (const std::size_t width : std::vector<std::size_t>{0, 1, 2, 4, 64}) {
      for (const std::size_t count : std::vector<std::size_t>{1, 3, 5, 100}) {
        std::vector<std::atomic<int>> hits(count);
        pool.parallel_for(
            count, [&hits](std::size_t i) { ++hits[i]; }, width);
        for (const auto& h : hits)
          EXPECT_EQ(h.load(), 1) << "workers " << workers << " width "
                                 << width << " count " << count;
      }
    }
  }
}

TEST(ThreadPool, PropagatesEarliestException) {
  // The lowest failing index wins even when a higher one fails first in
  // time, and its exception keeps its type: index 0 waits (at most 5 s, so
  // a slow host cannot hang the test) until index 5 has thrown, then throws
  // a different type.
  util::ThreadPool pool(4);
  std::atomic<bool> five_failed{false};
  try {
    pool.parallel_for(16, [&five_failed](std::size_t i) {
      if (i == 5) {
        five_failed = true;
        throw std::runtime_error("task 5");
      }
      if (i == 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!five_failed && std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
        throw std::logic_error("task 0");
      }
    });
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  } catch (const std::exception& e) {
    ADD_FAILURE() << "rethrew '" << e.what() << "' instead of task 0";
  }
}

TEST(ThreadPool, ParallelForRespectsWidthCap) {
  util::ThreadPool pool(4);
  std::atomic<int> active{0}, peak{0};
  pool.parallel_for(
      64,
      [&](std::size_t) {
        const int now = ++active;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --active;
      },
      /*width=*/2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, ParallelForThrowsLowestFailingIndex) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  try {
    pool.parallel_for(hits.size(), [&hits](std::size_t i) {
      ++hits[i];
      if (i == 7 || i == 21)
        throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
  // Every index still ran, and the group's error does not linger: a
  // following fan-out on the same pool is clean.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_NO_THROW(pool.parallel_for(8, [](std::size_t) {}));
}

TEST(ThreadPool, ParallelForGroupsAreIndependent) {
  // Two interleaved groups on one pool must each complete exactly their
  // own indices — the group barrier must not wait on (or steal errors
  // from) foreign tasks. Driven from two threads sharing the pool.
  util::ThreadPool pool(2);
  std::atomic<int> a_sum{0}, b_sum{0};
  std::thread other([&] {
    pool.parallel_for(100, [&a_sum](std::size_t i) {
      a_sum += static_cast<int>(i);
    });
  });
  pool.parallel_for(50, [&b_sum](std::size_t i) {
    b_sum += static_cast<int>(i);
  });
  other.join();
  EXPECT_EQ(a_sum.load(), 99 * 100 / 2);
  EXPECT_EQ(b_sum.load(), 49 * 50 / 2);
}

TEST(ThreadPool, SharedPoolIsPersistentAndUsable) {
  auto& pool = util::ThreadPool::shared();
  EXPECT_EQ(&pool, &util::ThreadPool::shared());  // one instance
  std::atomic<int> sum{0};
  pool.parallel_for(16, [&sum](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 15 * 16 / 2);
}

// ------------------------------------------------------------ stopwatch --

TEST(Stopwatch, MeasuresNonNegativeTime) {
  util::Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.millis(), 0.0);
}

// ----------------------------------------------------------------- spec --

TEST(Spec, SplitEmitsEmptySegments) {
  using util::spec::split;
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ';'), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x;", ';'), (std::vector<std::string>{"x", ""}));
  EXPECT_EQ(split("one", ';'), (std::vector<std::string>{"one"}));
}

TEST(Spec, TrimStripsSpacesAndTabs) {
  using util::spec::trim;
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim("\t\t"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Spec, NumericFieldsMustBeFullyConsumed) {
  // "12x" silently parsing as 12 is how a typo'd spec corrupts a run —
  // both parsers must consume the whole field or throw the grammar's
  // error shape, prefixed with the caller-supplied grammar name.
  EXPECT_EQ(util::spec::parse_u64("G", "42", "tok"), 42u);
  EXPECT_DOUBLE_EQ(util::spec::parse_f64("G", "0.25", "tok"), 0.25);
  auto expect_error = [](auto fn, const std::string& s,
                         const char* needle) {
    try {
      fn("MyGrammar", s, "the-token");
      FAIL() << "expected CheckError for '" << s << "'";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MyGrammar"), std::string::npos)
          << "got: " << what;
      EXPECT_NE(what.find(needle), std::string::npos) << "got: " << what;
      EXPECT_NE(what.find("the-token"), std::string::npos);
    }
  };
  expect_error(util::spec::parse_u64, "12x", "bad number");
  expect_error(util::spec::parse_u64, "", "missing number");
  expect_error(util::spec::parse_f64, "1.5e", "bad number");
  expect_error(util::spec::parse_f64, "", "missing number");
}

TEST(Spec, SplitEventParsesTimedClauses) {
  const auto e = util::spec::split_event("G", "down@120:3");
  EXPECT_EQ(e.kind, "down");
  EXPECT_EQ(e.slot, "120");
  EXPECT_EQ(e.args, "3");
  // args keep any later ':' intact for the grammar to interpret.
  const auto w = util::spec::split_event("G", "wire@9:0-1x0.5");
  EXPECT_EQ(w.kind, "wire");
  EXPECT_EQ(w.args, "0-1x0.5");
  for (const char* bad : {"down120:3", "down@120", "plain"}) {
    try {
      util::spec::split_event("G", bad);
      FAIL() << "expected CheckError for '" << bad << "'";
    } catch (const CheckError& e2) {
      EXPECT_NE(std::string(e2.what()).find("expected KIND@SLOT:ARGS"),
                std::string::npos)
          << "got: " << e2.what();
    }
  }
}

}  // namespace
}  // namespace manetcap
