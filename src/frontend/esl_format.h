// Textual `.esl` netlist format: parser + printer over NetlistSpec.
//
// The paper's toolkit loads abstract netlists from files instead of linking
// them in as C++ (§5); this frontend is that loader. The format is
// line-oriented, one statement per line, `;`-terminated, `#` comments:
//
//   esl 1;                                  # format version header
//   node eb pc width=16 init=0x1;           # node <kind> <name> key=value...
//   node fork fork width=16 branches=4;
//   channel pc.out0 -> fork.in0 name=pc.out;  # producer.out<P> -> consumer.in<Q>
//
// Node kinds, attributes and the named functions/generators/gates/schedulers
// referenced by `fn=`/`gen=`/`gate=`/`sched=` attributes resolve through the
// NodeRegistry (src/elastic/registry.h) plus the paper-domain stdlib
// (src/netlist/stdlib.h) — see the README "File format" section for the full
// attribute tables.
//
// Guarantees: print(parse(text)) is a fixpoint of print for every valid
// `text` (attributes are preserved verbatim, statements in order), and
// parse(print(spec)).build() reconstructs a netlist bit-identical to
// spec.build() — validated on load via Netlist::validate().
#pragma once

#include <string>
#include <string_view>

#include "elastic/registry.h"

namespace esl::frontend {

/// Parses `.esl` text in one pass; throws ParseError with `origin`:line on
/// bad syntax, a port index above 32 bits, an attribute key given twice in
/// one statement, or a channel attribute other than `name`. (Node kind and
/// attribute errors surface later, from NetlistSpec::build.)
NetlistSpec parseEsl(std::string_view text, const std::string& origin = "<string>");

/// Canonical text form; parseEsl(printEsl(spec)) == spec.
std::string printEsl(const NetlistSpec& spec);

/// Reads and parses a file; throws EslError when unreadable.
NetlistSpec parseEslFile(const std::string& path);

/// parse + build + validate in one step.
Netlist buildEslFile(const std::string& path);

/// Verifies the print -> parse -> print fixpoint for `spec` and returns the
/// printed text; throws InternalError quoting the first diverging line.
std::string checkRoundTrip(const NetlistSpec& spec);

}  // namespace esl::frontend
