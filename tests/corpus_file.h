/// \file corpus_file.h
/// The malformed-input corpora under tests/corpus/<format>.
///
/// Every corpus file must be rejected by its format's parser, and its
/// first line pins a substring of the diagnostic:
///
///   # expect: <substring of the error message>
///
/// Adding a regression is dropping a file in the directory - no code
/// change needed. Corpus directories live in ACTG_TEST_CORPUS_DIR.

#ifndef ACTG_TESTS_CORPUS_FILE_H
#define ACTG_TESTS_CORPUS_FILE_H

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace actg::corpus {

struct Case {
  std::filesystem::path path;
  /// The pinned substring; empty when the first line lacks the marker.
  std::string expect;
  /// The whole file, expectation line included (a '#' comment to every
  /// text format).
  std::string contents;

  std::string name() const { return path.filename().string(); }
};

/// Every regular file of tests/corpus/\p format, sorted by file name.
inline std::vector<Case> Load(const std::string& format) {
  const std::filesystem::path dir =
      std::filesystem::path(ACTG_TEST_CORPUS_DIR) / format;
  std::vector<Case> cases;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    Case c;
    c.path = entry.path();
    std::ifstream in(c.path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    c.contents = buffer.str();
    const std::string marker = "# expect: ";
    const std::string first = c.contents.substr(0, c.contents.find('\n'));
    if (first.rfind(marker, 0) == 0) c.expect = first.substr(marker.size());
    cases.push_back(std::move(c));
  }
  std::sort(cases.begin(), cases.end(), [](const Case& a, const Case& b) {
    return a.path.filename() < b.path.filename();
  });
  return cases;
}

}  // namespace actg::corpus

#endif  // ACTG_TESTS_CORPUS_FILE_H
