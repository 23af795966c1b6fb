#include "io/lef_reader.h"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "io/text_tokens.h"

namespace vm1 {
namespace {

using iodetail::TokenCursor;

bool fail(IoError* err, IoErrorKind kind, int line, std::string msg) {
  if (err) *err = IoError{kind, line, std::move(msg)};
  return false;
}

/// A finite number (strtod also reads "nan" and "inf", never valid here).
bool parse_num(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end && *end == '\0' && end != s.c_str() && std::isfinite(*out);
}

bool parse_int(const std::string& s, long* out) {
  char* end = nullptr;
  *out = std::strtol(s.c_str(), &end, 10);
  return end && *end == '\0' && end != s.c_str();
}

bool arch_from_string(const std::string& s, CellArch* out) {
  for (CellArch a : {CellArch::kConventional12T, CellArch::kClosedM1,
                     CellArch::kOpenM1}) {
    if (s == to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

bool vt_from_string(const std::string& s, Vt* out) {
  for (Vt v : {Vt::kLvt, Vt::kSvt, Vt::kHvt}) {
    if (s == to_string(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

/// Key/value pairs of one `PROPERTY k v k v ... ;` statement.
bool parse_properties(TokenCursor& cur,
                      std::unordered_map<std::string, std::string>* props,
                      IoError* err) {
  while (!cur.done() && cur.peek() != ";") {
    std::string key = cur.next();
    if (cur.done() || cur.peek() == ";") {
      return fail(err, IoErrorKind::kSyntax, cur.line(),
                  "PROPERTY " + key + " has no value");
    }
    (*props)[key] = cur.next();
  }
  if (cur.done()) {
    return fail(err, IoErrorKind::kTruncated, cur.line(),
                "PROPERTY statement unterminated");
  }
  cur.skip();  // ';'
  return true;
}

struct PropReader {
  const std::unordered_map<std::string, std::string>& props;
  bool ok = true;
  std::string bad_key;

  double num(const std::string& key, double fallback) {
    auto it = props.find(key);
    if (it == props.end()) return fallback;
    double v = 0;
    if (!parse_num(it->second, &v)) {
      ok = false;
      bad_key = key;
      return fallback;
    }
    return v;
  }

  /// A coordinate (DBU) property: also refused when it does not fit an
  /// int, so the conversion to Coord is always defined.
  Coord coord(const std::string& key, Coord fallback) {
    double v = num(key, static_cast<double>(fallback));
    if (std::fabs(v) > INT_MAX) {
      ok = false;
      bad_key = key;
      return fallback;
    }
    return static_cast<Coord>(v);
  }
};

/// Parses one PIN block (cursor sits after "PIN <name>"); consumes through
/// "END <name>".
bool parse_pin(TokenCursor& cur, const std::string& pin_name, const Tech& tech,
               bool* saw_m0, PinInfo* pin, IoError* err) {
  pin->name = pin_name;
  std::unordered_map<std::string, std::string> props;
  bool have_shape = false;
  while (true) {
    if (cur.done()) {
      return fail(err, IoErrorKind::kTruncated, cur.line(),
                  "PIN " + pin_name + " missing END");
    }
    std::string kw = cur.next();
    if (kw == "END") {
      if (cur.done() || cur.next() != pin_name) {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "PIN " + pin_name + " terminated by mismatched END");
      }
      break;
    }
    if (kw == "DIRECTION") {
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(),
                    "DIRECTION unterminated");
      }
      std::string dir = cur.next();
      if (dir == "INPUT") {
        pin->dir = PinDir::kInput;
      } else if (dir == "OUTPUT") {
        pin->dir = PinDir::kOutput;
      } else {
        return fail(err, IoErrorKind::kBadValue, cur.line(),
                    "pin direction " + dir);
      }
      cur.skip_statement();
    } else if (kw == "PROPERTY") {
      if (!parse_properties(cur, &props, err)) return false;
    } else if (kw == "PORT") {
      // PORT LAYER <name> RECT lx ly hx hy ;
      if (cur.done() || cur.next() != "LAYER") {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "PORT without LAYER in pin " + pin_name);
      }
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(), "PORT LAYER");
      }
      std::string lname = cur.next();
      int layer = -1;
      for (const Layer& l : tech.layers()) {
        if (l.name == lname) layer = layer_index(l.id);
      }
      if (layer < 0) {
        return fail(err, IoErrorKind::kUnsupportedTech, cur.line(),
                    "unknown layer " + lname + " in pin " + pin_name);
      }
      if (cur.done() || cur.next() != "RECT") {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "PORT LAYER without RECT in pin " + pin_name);
      }
      long v[4];
      for (long& x : v) {
        if (cur.done() || !parse_int(cur.next(), &x)) {
          return fail(err, IoErrorKind::kSyntax, cur.line(),
                      "malformed RECT in pin " + pin_name);
        }
        // Bounded like the coordinate properties, so the geometry below
        // (the M0 midpoint) cannot overflow.
        if (x < INT_MIN || x > INT_MAX) {
          return fail(err, IoErrorKind::kBadValue, cur.line(),
                      "RECT coordinate out of range in pin " + pin_name);
        }
      }
      pin->shapes.push_back({static_cast<LayerId>(layer),
                             Rect(static_cast<Coord>(v[0]),
                                  static_cast<Coord>(v[1]),
                                  static_cast<Coord>(v[2]),
                                  static_cast<Coord>(v[3]))});
      if (static_cast<LayerId>(layer) == LayerId::kM0) *saw_m0 = true;
      if (!have_shape) {
        // Geometry fallback from the first physical shape, overridden below
        // when vm1_* properties are present.
        const Rect& box = pin->shapes.back().box;
        if (static_cast<LayerId>(layer) == LayerId::kM0) {
          pin->xmin = box.lx;
          pin->xmax = box.hx;
          pin->x_track = (box.lx + box.hx) / 2;
        } else {
          pin->x_track = box.lx;
          pin->xmin = pin->xmax = box.lx;
        }
        pin->y_off = box.ly;
        have_shape = true;
      }
      cur.skip_statement();
    } else {
      cur.skip_statement();  // tolerate foreign pin attributes
    }
  }
  PropReader pr{props, true, {}};
  pin->x_track = pr.coord("vm1_x_track", pin->x_track);
  pin->xmin = pr.coord("vm1_xmin", pin->xmin);
  pin->xmax = pr.coord("vm1_xmax", pin->xmax);
  pin->y_off = pr.coord("vm1_y_off", pin->y_off);
  pin->cap = pr.num("vm1_cap", pin->cap);
  if (!pr.ok) {
    return fail(err, IoErrorKind::kBadValue, cur.line(),
                "pin " + pin_name + " property " + pr.bad_key);
  }
  return true;
}

/// Parses one MACRO block (cursor sits after "MACRO <name>").
bool parse_macro(TokenCursor& cur, const std::string& name, const Tech& tech,
                 bool* saw_m0, Cell* cell, IoError* err) {
  cell->name = name;
  std::unordered_map<std::string, std::string> props;
  while (true) {
    if (cur.done()) {
      return fail(err, IoErrorKind::kTruncated, cur.line(),
                  "MACRO " + name + " missing END");
    }
    std::string kw = cur.next();
    if (kw == "END") {
      if (cur.done() || cur.next() != name) {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "MACRO " + name + " terminated by mismatched END");
      }
      break;
    }
    if (kw == "CLASS") {
      std::string cls;
      while (!cur.done() && cur.peek() != ";") cls += cur.next() + " ";
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(), "CLASS");
      }
      cur.skip();  // ';'
      cell->filler = cls.find("SPACER") != std::string::npos;
    } else if (kw == "SIZE") {
      // SIZE <w> BY <h> ;
      long w = 0;
      if (cur.done() || !parse_int(cur.next(), &w)) {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "malformed SIZE in MACRO " + name);
      }
      if (w <= 0 || w > INT_MAX) {
        return fail(err, IoErrorKind::kBadValue, cur.line(),
                    "MACRO " + name + " width " + std::to_string(w));
      }
      cell->width_sites = static_cast<int>(w);
      cur.skip_statement();
    } else if (kw == "PROPERTY") {
      if (!parse_properties(cur, &props, err)) return false;
    } else if (kw == "PIN") {
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(), "PIN");
      }
      std::string pin_name = cur.next();
      PinInfo pin;
      if (!parse_pin(cur, pin_name, tech, saw_m0, &pin, err)) return false;
      cell->pins.push_back(std::move(pin));
    } else {
      cur.skip_statement();
    }
  }
  auto it = props.find("vm1_vt");
  if (it != props.end() && !vt_from_string(it->second, &cell->vt)) {
    return fail(err, IoErrorKind::kBadValue, cur.line(),
                "MACRO " + name + " vm1_vt " + it->second);
  }
  PropReader pr{props, true, {}};
  cell->sequential = pr.num("vm1_sequential", cell->sequential ? 1 : 0) != 0;
  cell->drive_res = pr.num("vm1_drive_res", cell->drive_res);
  cell->intrinsic_delay = pr.num("vm1_intrinsic", cell->intrinsic_delay);
  cell->leakage = pr.num("vm1_leakage", cell->leakage);
  if (!pr.ok) {
    return fail(err, IoErrorKind::kBadValue, cur.line(),
                "MACRO " + name + " property " + pr.bad_key);
  }
  return true;
}

}  // namespace

bool read_lef(const std::string& text, LefContents* out, IoError* err) {
  Tech tech = Tech::make_7nm();
  std::vector<iodetail::Tok> toks = iodetail::tokenize(text);
  TokenCursor cur(toks);

  bool have_arch = false;
  CellArch arch = CellArch::kClosedM1;
  bool saw_m0 = false;
  bool terminated = false;
  std::vector<Cell> cells;
  std::unordered_map<std::string, int> macro_names;

  while (!cur.done()) {
    std::string kw = cur.next();
    if (kw == "END" && !cur.done() && cur.peek() == "LIBRARY") {
      cur.skip();
      terminated = true;
      break;
    }
    if (kw == "PROPERTY") {
      std::unordered_map<std::string, std::string> props;
      if (!parse_properties(cur, &props, err)) return false;
      auto it = props.find("vm1_arch");
      if (it != props.end()) {
        if (!arch_from_string(it->second, &arch)) {
          return fail(err, IoErrorKind::kBadValue, cur.line(),
                      "vm1_arch " + it->second);
        }
        have_arch = true;
      }
    } else if (kw == "SITE") {
      // SITE <name> SIZE <w> BY <h> ; END <name> — the grid must match the
      // synthetic 7nm tech (1 site wide, row_height tall).
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(), "SITE");
      }
      std::string site = cur.next();
      while (!cur.done() && cur.peek() != "END") {
        if (cur.peek() == "SIZE") {
          cur.skip();
          long w = 0, h = 0;
          std::string by;
          if (cur.done() || !parse_int(cur.next(), &w)) {
            return fail(err, IoErrorKind::kSyntax, cur.line(), "SITE SIZE");
          }
          if (cur.done() || cur.next() != "BY" || cur.done() ||
              !parse_int(cur.next(), &h)) {
            return fail(err, IoErrorKind::kSyntax, cur.line(), "SITE SIZE");
          }
          if (w != tech.site_width() || h != tech.row_height()) {
            return fail(err, IoErrorKind::kUnsupportedTech, cur.line(),
                        "SITE " + std::to_string(w) + "x" + std::to_string(h) +
                            " does not match the synthetic 7nm grid");
          }
        }
        cur.skip_statement();
      }
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(),
                    "SITE " + site + " missing END");
      }
      cur.skip();  // END
      if (cur.done() || cur.next() != site) {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "SITE " + site + " terminated by mismatched END");
      }
    } else if (kw == "LAYER") {
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(), "LAYER");
      }
      std::string lname = cur.next();
      bool known = false;
      for (const Layer& l : tech.layers()) known = known || l.name == lname;
      if (!known) {
        return fail(err, IoErrorKind::kUnsupportedTech, cur.line(),
                    "layer " + lname + " not in the synthetic 7nm stack");
      }
      while (!cur.done() && cur.peek() != "END") cur.skip_statement();
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(),
                    "LAYER " + lname + " missing END");
      }
      cur.skip();  // END
      if (cur.done() || cur.next() != lname) {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "LAYER " + lname + " terminated by mismatched END");
      }
    } else if (kw == "MACRO") {
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(), "MACRO");
      }
      std::string name = cur.next();
      if (!macro_names.emplace(name, 1).second) {
        return fail(err, IoErrorKind::kDuplicateComponent, cur.line(),
                    "duplicate MACRO " + name);
      }
      Cell cell;
      if (!parse_macro(cur, name, tech, &saw_m0, &cell, err)) return false;
      cells.push_back(std::move(cell));
    } else if (kw == "UNITS") {
      while (!cur.done() && cur.peek() != "END") cur.skip_statement();
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(),
                    "UNITS missing END");
      }
      cur.skip();  // END
      if (!cur.done()) cur.skip();  // UNITS
    } else {
      cur.skip_statement();  // VERSION etc.
    }
  }
  if (!terminated) {
    return fail(err, IoErrorKind::kTruncated, cur.line(),
                "missing END LIBRARY");
  }
  if (cells.empty()) {
    return fail(err, IoErrorKind::kMissingSection, 0, "LEF defines no MACRO");
  }
  if (!have_arch) arch = saw_m0 ? CellArch::kOpenM1 : CellArch::kClosedM1;

  Library lib(arch);
  for (Cell& c : cells) {
    c.arch = arch;
    lib.add_cell(std::move(c));
  }
  out->tech = std::move(tech);
  out->lib = std::move(lib);
  return true;
}

}  // namespace vm1
