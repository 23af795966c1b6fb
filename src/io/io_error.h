/// \file io_error.h
/// Typed errors for netlist ingestion (LEF/DEF readers).
///
/// Every reader in src/io that constructs objects (a Library from LEF, a
/// complete Design from DEF) reports failures through IoError and returns
/// nothing on error — callers never see a partially-constructed result.
#pragma once

#include <string>

namespace vm1 {

enum class IoErrorKind {
  kTruncated,          ///< file/section ends before its END marker
  kSyntax,             ///< malformed statement
  kBadValue,           ///< parsed but out-of-domain value (e.g. width <= 0)
  kMissingSection,     ///< a required section (COMPONENTS, NETS...) absent
  kUnknownMaster,      ///< COMPONENT references a cell not in the library
  kDuplicateComponent, ///< COMPONENT name declared twice
  kDuplicateNet,       ///< NET name declared twice
  kDanglingNetPin,     ///< NET references an unknown component/pin/IO
  kOutsideDieArea,     ///< placement outside DIEAREA / ROWS
  kUnsupportedTech,    ///< LEF tech incompatible with the synthetic grid
};

const char* to_string(IoErrorKind kind);

struct IoError {
  IoErrorKind kind = IoErrorKind::kSyntax;
  int line = 0;  ///< 1-based line in the source text; 0 = whole file
  std::string message;

  /// "unknown_master at line 12: component u7 references master FOO"
  std::string str() const {
    std::string s = to_string(kind);
    if (line > 0) s += " at line " + std::to_string(line);
    if (!message.empty()) s += ": " + message;
    return s;
  }
};

inline const char* to_string(IoErrorKind kind) {
  switch (kind) {
    case IoErrorKind::kTruncated: return "truncated";
    case IoErrorKind::kSyntax: return "syntax";
    case IoErrorKind::kBadValue: return "bad_value";
    case IoErrorKind::kMissingSection: return "missing_section";
    case IoErrorKind::kUnknownMaster: return "unknown_master";
    case IoErrorKind::kDuplicateComponent: return "duplicate_component";
    case IoErrorKind::kDuplicateNet: return "duplicate_net";
    case IoErrorKind::kDanglingNetPin: return "dangling_net_pin";
    case IoErrorKind::kOutsideDieArea: return "outside_die_area";
    case IoErrorKind::kUnsupportedTech: return "unsupported_tech";
  }
  return "?";
}

}  // namespace vm1
