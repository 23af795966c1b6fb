/// \file model.h
/// Mixed-integer linear program model: an lp::Problem plus integrality marks.
///
/// This plus branch_and_bound.h is the drop-in replacement for the paper's
/// use of CPLEX 12.6.3 to solve per-window detailed-placement MILPs.
#pragma once

#include <string>
#include <vector>

#include "lp/simplex.h"

namespace vm1::milp {

/// A minimization MILP. Variables are continuous by default; binaries and
/// general integers can be added or marked.
class Model {
 public:
  /// Adds a continuous variable; returns its index.
  int add_continuous(double lo, double hi, double cost,
                     std::string name = "");
  /// Adds a binary (0/1) variable; returns its index.
  int add_binary(double cost, std::string name = "");
  /// Adds a bounded integer variable; returns its index.
  int add_integer(double lo, double hi, double cost, std::string name = "");

  void add_constraint(std::vector<std::pair<int, double>> terms,
                      lp::Sense sense, double rhs) {
    lp_.add_constraint(std::move(terms), sense, rhs);
  }

  int num_variables() const { return lp_.num_variables(); }
  int num_constraints() const { return lp_.num_constraints(); }
  int num_integers() const { return static_cast<int>(int_vars_.size()); }
  bool is_integer(int v) const { return is_int_[v]; }
  const std::vector<int>& integer_variables() const { return int_vars_; }

  /// Branching priority (higher = branched first among fractional
  /// integers). The window builder raises the alignment indicators d_pq:
  /// fixing one decides every alignment or overlap row of its pair.
  void set_branch_priority(int v, int priority) { priority_[v] = priority; }
  int branch_priority(int v) const { return priority_[v]; }

  lp::Problem& lp() { return lp_; }
  const lp::Problem& lp() const { return lp_; }

  /// True if x satisfies all constraints, bounds, and integrality within tol.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

  double objective_value(const std::vector<double>& x) const {
    return lp_.objective_value(x);
  }

 private:
  lp::Problem lp_;
  std::vector<bool> is_int_;
  std::vector<int> int_vars_;
  std::vector<int> priority_;
};

}  // namespace vm1::milp
