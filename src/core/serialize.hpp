#pragma once
// Binary (de)serialization of factorization results, so a factorization
// computed once (e.g. by the CLI tool) can be stored and re-applied later.
// Format: magic + version header, then length-prefixed POD sections; files
// are not portable across endianness (documented limitation).

#include <string>

#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"
#include "core/randubv.hpp"

namespace lra {

void save_factorization(const std::string& path, const LuCrtpResult& r);
void save_factorization(const std::string& path, const RandQbResult& r);
void save_factorization(const std::string& path, const RandUbvResult& r);

/// Peek at the stored kind: "lu", "qb" or "ubv"; throws on anything else.
std::string stored_factorization_kind(const std::string& path);

LuCrtpResult load_lu_factorization(const std::string& path);
RandQbResult load_qb_factorization(const std::string& path);
RandUbvResult load_ubv_factorization(const std::string& path);

/// Sparse matrix container round-trip (used by tests and the CLI cache).
void save_csc(const std::string& path, const CscMatrix& a);
CscMatrix load_csc(const std::string& path);

}  // namespace lra
