#include "io/def_reader.h"

#include <climits>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "io/text_tokens.h"

namespace vm1 {
namespace {

using iodetail::TokenCursor;

bool fail(IoError* err, IoErrorKind kind, int line, std::string msg) {
  if (err) *err = IoError{kind, line, std::move(msg)};
  return false;
}

bool parse_long(const std::string& s, long* out) {
  char* end = nullptr;
  *out = std::strtol(s.c_str(), &end, 10);
  return end && *end == '\0' && end != s.c_str();
}

// Parsed-but-not-yet-constructed state: the Design is built only after the
// whole file validates, so errors can never leak a partial object.
struct ParsedComponent {
  std::string name;
  int cell = -1;
  long x = 0, row = 0;  ///< as read; checked against the final site grid
  bool flipped = false;
  int line = 0;
};

struct ParsedIo {
  std::string name;
  bool is_input = true;
  Point pos;
};

struct ParsedConn {
  bool is_io = false;
  int inst = -1;  ///< component index, or IO index when is_io
  int pin = 0;
};

struct ParsedNet {
  std::string name;
  bool is_clock = false;
  std::vector<ParsedConn> conns;
};

struct DefParse {
  std::string design_name = "unnamed";
  bool have_diearea = false;
  long die_hx = 0, die_hy = 0;
  long rows = 0, sites = 0;  ///< 0 until ROWS seen or derived
  bool saw_components = false, saw_pins = false, saw_nets = false;
  std::vector<ParsedComponent> comps;
  std::vector<ParsedIo> ios;
  std::vector<ParsedNet> nets;
  std::unordered_map<std::string, int> comp_by_name;
  std::unordered_map<std::string, int> io_by_name;
};

bool expect(TokenCursor& cur, const char* what, std::string* out,
            IoError* err) {
  if (cur.done()) {
    return fail(err, IoErrorKind::kTruncated, cur.line(),
                std::string("expected ") + what);
  }
  *out = cur.next();
  return true;
}

bool expect_long(TokenCursor& cur, const char* what, long* out, IoError* err) {
  std::string tok;
  if (!expect(cur, what, &tok, err)) return false;
  if (!parse_long(tok, out)) {
    return fail(err, IoErrorKind::kSyntax, cur.line(),
                std::string("malformed ") + what + " '" + tok + "'");
  }
  return true;
}

bool expect_token(TokenCursor& cur, const char* want, IoError* err) {
  std::string tok;
  if (!expect(cur, want, &tok, err)) return false;
  if (tok != want) {
    return fail(err, IoErrorKind::kSyntax, cur.line(),
                std::string("expected '") + want + "', got '" + tok + "'");
  }
  return true;
}

bool parse_components(TokenCursor& cur, const Library& lib, DefParse* p,
                      IoError* err) {
  long declared = 0;
  if (!expect_long(cur, "COMPONENTS count", &declared, err)) return false;
  if (!expect_token(cur, ";", err)) return false;
  while (true) {
    if (cur.done()) {
      return fail(err, IoErrorKind::kTruncated, cur.line(),
                  "COMPONENTS section unterminated");
    }
    if (cur.peek() == "END") {
      cur.skip();
      if (!expect_token(cur, "COMPONENTS", err)) return false;
      break;
    }
    if (!expect_token(cur, "-", err)) return false;
    ParsedComponent c;
    std::string master;
    if (!expect(cur, "component name", &c.name, err) ||
        !expect(cur, "master name", &master, err)) {
      return false;
    }
    c.line = cur.line();
    c.cell = lib.find(master);
    if (c.cell < 0) {
      return fail(err, IoErrorKind::kUnknownMaster, c.line,
                  "component " + c.name + " references master " + master);
    }
    if (!p->comp_by_name
             .emplace(c.name, static_cast<int>(p->comps.size()))
             .second) {
      return fail(err, IoErrorKind::kDuplicateComponent, c.line,
                  "component " + c.name + " declared twice");
    }
    // "+ PLACED ( x row ) N|FS" — also accept UNPLACED components.
    std::string plus;
    if (!expect(cur, "'+'", &plus, err)) return false;
    std::string kind;
    if (!expect(cur, "placement status", &kind, err)) return false;
    if (kind == "PLACED" || kind == "FIXED") {
      std::string orient;
      if (!expect_token(cur, "(", err) ||
          !expect_long(cur, "component x", &c.x, err) ||
          !expect_long(cur, "component row", &c.row, err) ||
          !expect_token(cur, ")", err) ||
          !expect(cur, "orientation", &orient, err)) {
        return false;
      }
      c.flipped = orient == "FS";
    }
    if (!expect_token(cur, ";", err)) return false;
    p->comps.push_back(std::move(c));
  }
  if (declared != static_cast<long>(p->comps.size())) {
    return fail(err, IoErrorKind::kSyntax, cur.line(),
                "COMPONENTS declares " + std::to_string(declared) +
                    " entries but lists " + std::to_string(p->comps.size()));
  }
  return true;
}

bool parse_pins(TokenCursor& cur, DefParse* p, IoError* err) {
  long declared = 0;
  if (!expect_long(cur, "PINS count", &declared, err)) return false;
  if (!expect_token(cur, ";", err)) return false;
  while (true) {
    if (cur.done()) {
      return fail(err, IoErrorKind::kTruncated, cur.line(),
                  "PINS section unterminated");
    }
    if (cur.peek() == "END") {
      cur.skip();
      if (!expect_token(cur, "PINS", err)) return false;
      break;
    }
    if (!expect_token(cur, "-", err)) return false;
    ParsedIo io;
    if (!expect(cur, "pin name", &io.name, err)) return false;
    int line = cur.line();
    std::string plus, dir;
    if (!expect(cur, "'+'", &plus, err) ||
        !expect(cur, "pin direction", &dir, err)) {
      return false;
    }
    if (dir == "INPUT") {
      io.is_input = true;
    } else if (dir == "OUTPUT") {
      io.is_input = false;
    } else {
      return fail(err, IoErrorKind::kBadValue, line,
                  "pin " + io.name + " direction " + dir);
    }
    long x = 0, y = 0;
    if (!expect_token(cur, "(", err) || !expect_long(cur, "pin x", &x, err) ||
        !expect_long(cur, "pin y", &y, err) ||
        !expect_token(cur, ")", err) || !expect_token(cur, ";", err)) {
      return false;
    }
    if (!p->io_by_name.emplace(io.name, static_cast<int>(p->ios.size()))
             .second) {
      return fail(err, IoErrorKind::kDuplicateComponent, line,
                  "pin " + io.name + " declared twice");
    }
    io.pos = Point{static_cast<Coord>(x), static_cast<Coord>(y)};
    p->ios.push_back(std::move(io));
  }
  if (declared != static_cast<long>(p->ios.size())) {
    return fail(err, IoErrorKind::kSyntax, cur.line(),
                "PINS declares " + std::to_string(declared) +
                    " entries but lists " + std::to_string(p->ios.size()));
  }
  return true;
}

bool parse_nets(TokenCursor& cur, const Library& lib, DefParse* p,
                IoError* err) {
  long declared = 0;
  if (!expect_long(cur, "NETS count", &declared, err)) return false;
  if (!expect_token(cur, ";", err)) return false;
  std::unordered_map<std::string, int> net_by_name;
  // (component, pin) pairs already claimed by a net — a pin joins at most
  // one net, and Netlist::connect asserts it, so validate here.
  std::unordered_map<long, std::string> pin_claimed;
  while (true) {
    if (cur.done()) {
      return fail(err, IoErrorKind::kTruncated, cur.line(),
                  "NETS section unterminated");
    }
    if (cur.peek() == "END") {
      cur.skip();
      if (!expect_token(cur, "NETS", err)) return false;
      break;
    }
    if (!expect_token(cur, "-", err)) return false;
    ParsedNet net;
    if (!expect(cur, "net name", &net.name, err)) return false;
    if (!net_by_name.emplace(net.name, static_cast<int>(p->nets.size()))
             .second) {
      return fail(err, IoErrorKind::kDuplicateNet, cur.line(),
                  "net " + net.name + " declared twice");
    }
    while (true) {
      if (cur.done()) {
        return fail(err, IoErrorKind::kTruncated, cur.line(),
                    "net " + net.name + " unterminated");
      }
      std::string tok = cur.next();
      if (tok == ";") break;
      if (tok == "+") {
        // "+ USE CLOCK" (other net attributes are tolerated and skipped).
        std::string kw;
        if (!expect(cur, "net attribute", &kw, err)) return false;
        if (kw == "USE") {
          std::string use;
          if (!expect(cur, "USE value", &use, err)) return false;
          net.is_clock = use == "CLOCK";
        }
        continue;
      }
      if (tok != "(") {
        return fail(err, IoErrorKind::kSyntax, cur.line(),
                    "net " + net.name + ": expected '(', got '" + tok + "'");
      }
      std::string a, b;
      if (!expect(cur, "connection target", &a, err) ||
          !expect(cur, "connection pin", &b, err) ||
          !expect_token(cur, ")", err)) {
        return false;
      }
      int line = cur.line();
      ParsedConn conn;
      if (a == "PIN") {
        auto it = p->io_by_name.find(b);
        if (it == p->io_by_name.end()) {
          return fail(err, IoErrorKind::kDanglingNetPin, line,
                      "net " + net.name + " references unknown IO " + b);
        }
        conn.is_io = true;
        conn.inst = it->second;
      } else {
        auto it = p->comp_by_name.find(a);
        if (it == p->comp_by_name.end()) {
          return fail(err, IoErrorKind::kDanglingNetPin, line,
                      "net " + net.name + " references unknown component " +
                          a);
        }
        conn.inst = it->second;
        const Cell& cell = lib.cell(p->comps[conn.inst].cell);
        conn.pin = cell.pin_index(b);
        if (conn.pin < 0) {
          return fail(err, IoErrorKind::kDanglingNetPin, line,
                      "net " + net.name + ": master " + cell.name +
                          " has no pin " + b);
        }
        long key = static_cast<long>(conn.inst) * 1024 + conn.pin;
        auto claimed = pin_claimed.emplace(key, net.name);
        if (!claimed.second) {
          return fail(err, IoErrorKind::kDanglingNetPin, line,
                      "pin " + a + "/" + b + " connected to both net " +
                          claimed.first->second + " and net " + net.name);
        }
      }
      net.conns.push_back(conn);
    }
    p->nets.push_back(std::move(net));
  }
  if (declared != static_cast<long>(p->nets.size())) {
    return fail(err, IoErrorKind::kSyntax, cur.line(),
                "NETS declares " + std::to_string(declared) +
                    " entries but lists " + std::to_string(p->nets.size()));
  }
  return true;
}

}  // namespace

std::unique_ptr<Design> read_def_design(const std::string& text,
                                        const Tech& tech, const Library& lib,
                                        IoError* err) {
  std::vector<iodetail::Tok> toks = iodetail::tokenize(text);
  TokenCursor cur(toks);
  DefParse p;
  bool terminated = false;

  while (!cur.done()) {
    std::string kw = cur.next();
    if (kw == "END" && !cur.done() && cur.peek() == "DESIGN") {
      cur.skip();
      terminated = true;
      break;
    }
    if (kw == "DESIGN") {
      if (!expect(cur, "design name", &p.design_name, err)) return nullptr;
      cur.skip_statement();
    } else if (kw == "DIEAREA") {
      const int line = cur.line();
      long lx = 0, ly = 0;
      if (!expect_token(cur, "(", err) ||
          !expect_long(cur, "DIEAREA lx", &lx, err) ||
          !expect_long(cur, "DIEAREA ly", &ly, err) ||
          !expect_token(cur, ")", err) || !expect_token(cur, "(", err) ||
          !expect_long(cur, "DIEAREA hx", &p.die_hx, err) ||
          !expect_long(cur, "DIEAREA hy", &p.die_hy, err) ||
          !expect_token(cur, ")", err)) {
        return nullptr;
      }
      cur.skip_statement();
      if (lx != 0 || ly != 0 || p.die_hx <= 0 || p.die_hy <= 0) {
        fail(err, IoErrorKind::kBadValue, line,
             "DIEAREA must be (0 0) (hx>0 hy>0)");
        return nullptr;
      }
      p.have_diearea = true;
    } else if (kw == "ROWS") {
      const int line = cur.line();
      if (!expect_long(cur, "ROWS count", &p.rows, err) ||
          !expect_token(cur, "SITES", err) ||
          !expect_long(cur, "SITES count", &p.sites, err)) {
        return nullptr;
      }
      cur.skip_statement();
      if (p.rows <= 0 || p.sites <= 0 || p.rows > INT_MAX ||
          p.sites > INT_MAX) {
        fail(err, IoErrorKind::kBadValue, line,
             "ROWS/SITES must be in [1, INT_MAX]");
        return nullptr;
      }
    } else if (kw == "COMPONENTS") {
      if (!parse_components(cur, lib, &p, err)) return nullptr;
      p.saw_components = true;
    } else if (kw == "PINS") {
      if (!parse_pins(cur, &p, err)) return nullptr;
      p.saw_pins = true;
    } else if (kw == "NETS") {
      if (!p.saw_components) {
        fail(err, IoErrorKind::kMissingSection, cur.line(),
             "NETS before COMPONENTS");
        return nullptr;
      }
      if (!parse_nets(cur, lib, &p, err)) return nullptr;
      p.saw_nets = true;
    } else {
      cur.skip_statement();  // VERSION and other preamble
    }
  }
  if (!terminated) {
    fail(err, IoErrorKind::kTruncated, cur.line(), "missing END DESIGN");
    return nullptr;
  }
  if (!p.saw_components) {
    fail(err, IoErrorKind::kMissingSection, 0, "no COMPONENTS section");
    return nullptr;
  }
  if (!p.saw_nets) {
    fail(err, IoErrorKind::kMissingSection, 0, "no NETS section");
    return nullptr;
  }
  if (p.rows == 0 && p.have_diearea) {
    // No ROWS statement (foreign DEF): derive the site grid from DIEAREA.
    p.rows = p.die_hy / tech.row_height();
    p.sites = p.die_hx / tech.site_width();
  }
  if (p.rows <= 0 || p.sites <= 0) {
    fail(err, IoErrorKind::kMissingSection, 0, "no DIEAREA or ROWS");
    return nullptr;
  }
  if (p.rows > INT_MAX || p.sites > INT_MAX) {
    fail(err, IoErrorKind::kBadValue, 0,
         "DIEAREA gives more than INT_MAX rows or sites");
    return nullptr;
  }
  // Every component against the final grid, whatever order DIEAREA, ROWS
  // and COMPONENTS came in (an unplaced one sits at the origin). Written so
  // that no term can overflow.
  for (const ParsedComponent& c : p.comps) {
    const long width = lib.cell(c.cell).width_sites;
    if (c.x < 0 || c.row < 0 || c.row >= p.rows || c.x > p.sites - width) {
      fail(err, IoErrorKind::kOutsideDieArea, c.line,
           "component " + c.name + " at (" + std::to_string(c.x) + ", " +
               std::to_string(c.row) + ") outside the " +
               std::to_string(p.rows) + " x " + std::to_string(p.sites) +
               " site grid");
      return nullptr;
    }
  }

  // Everything validated — construct the Design in one shot.
  auto lib_copy = std::make_unique<Library>(lib);
  auto nl = std::make_unique<Netlist>(lib_copy.get());
  for (const ParsedComponent& c : p.comps) nl->add_instance(c.name, c.cell);
  for (const ParsedIo& io : p.ios) nl->add_io(io.name, io.is_input);
  for (const ParsedNet& net : p.nets) {
    int n = nl->add_net(net.name, net.is_clock);
    for (const ParsedConn& conn : net.conns) {
      nl->connect(n, conn.is_io ? NetPin{-1, conn.inst}
                                : NetPin{conn.inst, conn.pin});
    }
  }
  auto d = std::make_unique<Design>(p.design_name, tech, std::move(lib_copy),
                                    std::move(nl), static_cast<int>(p.rows),
                                    static_cast<int>(p.sites));
  for (std::size_t i = 0; i < p.comps.size(); ++i) {
    const ParsedComponent& c = p.comps[i];
    d->set_placement(static_cast<int>(i),
                     Placement{static_cast<int>(c.x), static_cast<int>(c.row),
                               c.flipped});
  }
  for (std::size_t i = 0; i < p.ios.size(); ++i) {
    d->set_io_position(static_cast<int>(i), p.ios[i].pos);
  }
  return d;
}

}  // namespace vm1
