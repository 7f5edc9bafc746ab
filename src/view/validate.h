// Non-aborting semantic validation of view definitions and whole VDAGs.
//
// The engine's hot paths enforce contracts with WUW_CHECK (abort); this
// module is the front door for definitions arriving from users, scripts,
// or the SQL parser: it reports the first problem as a message instead.
#ifndef WUW_VIEW_VALIDATE_H_
#define WUW_VIEW_VALIDATE_H_

#include <string>

#include "graph/vdag.h"
#include "view/view_definition.h"

namespace wuw {

/// Checks one definition against its sources' schemas: column-name
/// uniqueness across sources, every expression typed by the binder's rules
/// (columns resolvable, arithmetic operands numeric), join conditions
/// spanning two distinct sources, and aggregate shape (SUM arguments not
/// strings).
/// Returns an empty string when valid, else a description of the first
/// problem.
std::string ValidateDefinition(const ViewDefinition& def,
                               const ViewDefinition::SchemaResolver& resolver);

/// Validates every derived view of a VDAG.  Empty string when clean.
std::string ValidateVdag(const Vdag& vdag);

}  // namespace wuw

#endif  // WUW_VIEW_VALIDATE_H_
