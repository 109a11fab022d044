#include "sparse/io_mm.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sparse/coo.hpp"

namespace lra {
namespace {

// One value token, parsed like operator>> (strtod, correctly rounded) but
// with the whole token required and non-finite results rejected: "nan",
// "inf" and overflowing literals such as 1e999 are errors, not entries.
double parse_value(const std::string& path, long long entry,
                   const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  const bool whole = end != tok.c_str() && *end == '\0';
  if (whole && std::isfinite(v)) return v;
  throw std::runtime_error(path + ": entry " + std::to_string(entry) + ": " +
                           (whole ? "non-finite" : "malformed") + " value '" +
                           tok + "'");
}

}  // namespace

CscMatrix read_matrix_market(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);

  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error(path + ": empty file");
  std::string lower = line;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower.rfind("%%matrixmarket", 0) != 0)
    throw std::runtime_error(path + ": missing MatrixMarket banner");
  const bool pattern = lower.find("pattern") != std::string::npos;
  const bool symmetric = lower.find(" symmetric") != std::string::npos;
  const bool skew = lower.find("skew-symmetric") != std::string::npos;
  if (lower.find("coordinate") == std::string::npos)
    throw std::runtime_error(path + ": only coordinate format is supported");
  if (lower.find("complex") != std::string::npos)
    throw std::runtime_error(path + ": complex matrices are not supported");

  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream hdr(line);
  Index m = 0, n = 0;
  long long nz = 0;
  hdr >> m >> n >> nz;
  if (!hdr || m <= 0 || n <= 0 || nz < 0)
    throw std::runtime_error(path + ": bad size line");
  if ((symmetric || skew) && m != n)
    throw std::runtime_error(path + ": symmetric matrix must be square");

  // The header's nz is outside input: it is bounded by the matrix capacity
  // (checked without forming m * n), and storage grows as entries are
  // actually read, so a lying header cannot trigger a huge allocation.
  if (nz / n > m || (nz / n == m && nz % n != 0))
    throw std::runtime_error(path + ": nz " + std::to_string(nz) +
                             " exceeds the " + std::to_string(m) + "x" +
                             std::to_string(n) + " matrix capacity");
  constexpr long long kMaxReserve = 1 << 20;
  CooBuilder coo(m, n);
  coo.reserve(static_cast<std::size_t>(std::min(nz, kMaxReserve)));
  std::string tok;
  for (long long t = 0; t < nz; ++t) {
    Index i = 0, j = 0;
    double v = 1.0;
    if (!(is >> i >> j)) throw std::runtime_error(path + ": truncated data");
    if (!pattern) {
      if (!(is >> tok)) throw std::runtime_error(path + ": truncated value");
      v = parse_value(path, t + 1, tok);
    }
    if (i < 1 || i > m || j < 1 || j > n)
      throw std::runtime_error(path + ": entry " + std::to_string(t + 1) +
                               " index (" + std::to_string(i) + ", " +
                               std::to_string(j) + ") is outside the " +
                               std::to_string(m) + "x" + std::to_string(n) +
                               " matrix");
    --i;
    --j;  // 1-based -> 0-based
    coo.add(i, j, v);
    if ((symmetric || skew) && i != j) coo.add(j, i, skew ? -v : v);
  }
  // Checked after the entries, so a truncated file reports its truncation,
  // but before build() allocates the n + 1 column pointers.
  if (m > kMaxMatrixMarketDim || n > kMaxMatrixMarketDim)
    throw std::runtime_error(path + ": dimensions " + std::to_string(m) + "x" +
                             std::to_string(n) + " exceed the maximum " +
                             std::to_string(kMaxMatrixMarketDim));
  return coo.build();
}

void write_matrix_market(const CscMatrix& a, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path);
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  os.precision(17);
  for (Index j = 0; j < a.cols(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t p = 0; p < rows.size(); ++p)
      os << rows[p] + 1 << ' ' << j + 1 << ' ' << vals[p] << '\n';
  }
}

}  // namespace lra
