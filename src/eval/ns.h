#ifndef RDFQL_EVAL_NS_H_
#define RDFQL_EVAL_NS_H_

#include "algebra/mapping_set.h"

namespace rdfql {

/// ⟦P⟧max: removes every mapping properly subsumed by another mapping of
/// the set (the semantics of the NS operator, Section 5.1).
///
/// Reference implementation: O(n²) pairwise subsumption tests.
MappingSet RemoveSubsumedNaive(const MappingSet& input);

/// Optimized implementation: groups mappings by domain, then for each
/// strict superset pair of domains (D ⊊ D') probes every live mapping of
/// bucket D against a flat table of the distinct D-projections of bucket D',
/// marking victims in a position bitmap. When the number of distinct
/// domains is small (the common case — domains come from the pattern's
/// OPT/UNION structure), this is near-linear instead of quadratic.
/// Survivors keep the input's order. Each table is charged to the installed
/// ResourceAccountant, as its distinct projections, while it lives.
MappingSet RemoveSubsumedBucketed(const MappingSet& input);

/// True iff no mapping of the set is properly subsumed by another
/// (i.e. Ω = Ωmax; used by the subsumption-freeness testers).
bool IsSubsumptionFree(const MappingSet& input);

}  // namespace rdfql

#endif  // RDFQL_EVAL_NS_H_
