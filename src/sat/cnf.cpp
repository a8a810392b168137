#include "sat/cnf.h"

#include <ostream>

namespace occ {
namespace sat {

void Cnf::write_dimacs(std::ostream& os,
                       const std::vector<std::string>& comments) const {
  for (const std::string& c : comments) os << "c " << c << "\n";
  os << "p cnf " << num_vars << " " << num_clauses() << "\n";
  for (size_t i = 0; i < num_clauses(); ++i) {
    for (Lit l : clause(i)) {
      const int64_t v = static_cast<int64_t>(lit_var(l)) + 1;
      os << (lit_sign(l) ? -v : v) << " ";
    }
    os << "0\n";
  }
}

}  // namespace sat
}  // namespace occ
