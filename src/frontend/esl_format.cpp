#include "frontend/esl_format.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "netlist/stdlib.h"

namespace esl::frontend {

namespace {

[[noreturn]] void fail(const std::string& origin, std::size_t line,
                       const std::string& msg) {
  throw ParseError(origin + ":" + std::to_string(line) + ": " + msg);
}

bool isSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

constexpr std::string_view kArrow = "->";

/// Splits one statement into whitespace-separated tokens, and each token at
/// every "->" ("a.out0->b.in1" is three tokens). The views point into `stmt`.
void splitTokens(std::string_view stmt, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (true) {
    while (i < stmt.size() && isSpace(stmt[i])) ++i;
    if (i == stmt.size()) return;
    std::size_t end = i;
    while (end < stmt.size() && !isSpace(stmt[end])) ++end;
    std::string_view word = stmt.substr(i, end - i);
    for (std::size_t arrow = word.find(kArrow); arrow != std::string_view::npos;
         arrow = word.find(kArrow)) {
      if (arrow > 0) out.push_back(word.substr(0, arrow));
      out.push_back(kArrow);
      word.remove_prefix(arrow + kArrow.size());
    }
    if (!word.empty()) out.push_back(word);
    i = end;
  }
}

/// A statement's tokens with the line they came from, for error messages.
struct Statement {
  const std::string& origin;
  std::size_t line;
  std::vector<std::string_view> tokens;

  [[noreturn]] void fail(const std::string& msg) const {
    frontend::fail(origin, line, msg);
  }

  /// Splits "name.out3" / "name.in0" (`tag` ".out" / ".in") into the node
  /// name and a port index that must fit 32 bits.
  void endpoint(std::string_view token, std::string_view tag, std::string& node,
                unsigned& port) const {
    const std::size_t at = token.rfind(tag);
    if (at != std::string_view::npos && at > 0 && at + tag.size() < token.size()) {
      const std::string_view digits = token.substr(at + tag.size());
      if (std::all_of(digits.begin(), digits.end(),
                      [](char c) { return c >= '0' && c <= '9'; })) {
        const auto [ptr, ec] =
            std::from_chars(digits.data(), digits.data() + digits.size(), port);
        if (ec != std::errc{})
          fail("endpoint '" + std::string(token) +
               "': port index is above the limit of " +
               std::to_string(std::numeric_limits<unsigned>::max()));
        node = token.substr(0, at);
        return;
      }
    }
    fail("expected endpoint '<node>" + std::string(tag) + "<port>', got '" +
         std::string(token) + "'");
  }

  /// Calls `add(key, value)` for each `key=value` token from `first` on,
  /// refusing a malformed token and a key given twice.
  template <typename Add>
  void attributes(std::size_t first, Add&& add) const {
    for (std::size_t i = first; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos || eq == 0)
        fail("expected key=value attribute, got '" + std::string(tok) + "'");
      const std::string_view key = tok.substr(0, eq);
      for (std::size_t j = first; j < i; ++j)
        if (tokens[j].substr(0, tokens[j].find('=')) == key)
          fail("attribute '" + std::string(key) + "' is given twice");
      add(key, tok.substr(eq + 1));
    }
  }
};

}  // namespace

NetlistSpec parseEsl(std::string_view text, const std::string& origin) {
  stdlib::ensureRegistered();
  NetlistSpec spec;
  Statement st{origin, 0, {}};
  std::vector<std::string_view>& t = st.tokens;
  bool sawHeader = false;

  for (std::size_t pos = 0; pos < text.size();) {
    ++st.line;
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view stmt = text.substr(pos, eol - pos);
    pos = eol + 1;
    stmt = stmt.substr(0, stmt.find('#'));
    splitTokens(stmt, t);
    if (t.empty()) continue;

    if (t.back() == ";")
      t.pop_back();
    else if (t.back().back() == ';')
      t.back().remove_suffix(1);
    else
      st.fail("statement does not end with ';'");
    if (t.empty()) st.fail("empty statement");

    if (!sawHeader) {
      if (t.size() != 2 || t[0] != "esl") st.fail("expected 'esl 1;' header first");
      if (t[1] != "1")
        st.fail("unsupported format version '" + std::string(t[1]) + "'");
      sawHeader = true;
      continue;
    }

    if (t[0] == "node") {
      if (t.size() < 3) st.fail("usage: node <kind> <name> [k=v...]");
      NodeSpec& node = spec.nodes.emplace_back();
      node.kind = t[1];
      node.name = t[2];
      try {
        validateIrName(node.name, "node name");
      } catch (const NetlistError& e) {
        st.fail(e.what());
      }
      std::vector<Params::Entry> attrs;
      attrs.reserve(t.size() - 3);
      st.attributes(3, [&](std::string_view key, std::string_view value) {
        attrs.emplace_back(key, value);
      });
      node.params = Params(std::move(attrs));
      continue;
    }

    if (t[0] == "channel") {
      if (t.size() < 4 || t[2] != kArrow)
        st.fail("usage: channel <prod>.out<P> -> <cons>.in<Q> [name=...]");
      ChannelSpec& ch = spec.channels.emplace_back();
      st.endpoint(t[1], ".out", ch.producer, ch.producerPort);
      st.endpoint(t[3], ".in", ch.consumer, ch.consumerPort);
      std::string unknown;
      st.attributes(4, [&](std::string_view key, std::string_view value) {
        if (key == "name") {
          ch.name = value;
          return;
        }
        if (!unknown.empty()) unknown += ", ";
        unknown += key;
      });
      if (!unknown.empty())
        st.fail("channel statement: unknown attribute(s): " + unknown);
      continue;
    }

    st.fail("unknown statement '" + std::string(t[0]) + "'");
  }

  if (!sawHeader) st.fail("missing 'esl 1;' header");
  return spec;
}

std::string printEsl(const NetlistSpec& spec) {
  // One pass sizes the text (ports at their widest), one writes it.
  constexpr std::size_t kPortDigits = std::numeric_limits<unsigned>::digits10 + 1;
  std::size_t size = 7;
  for (const NodeSpec& n : spec.nodes) {
    size += 8 + n.kind.size() + n.name.size();
    for (const auto& [key, value] : n.params.entries())
      size += 2 + key.size() + value.size();
  }
  for (const ChannelSpec& ch : spec.channels)
    size += 28 + 2 * kPortDigits + ch.producer.size() + ch.consumer.size() +
            ch.name.size();
  std::string out;
  out.reserve(size);
  const auto port = [&out](unsigned p) {
    char buf[kPortDigits];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), p).ptr);
  };
  out += "esl 1;\n";
  for (const NodeSpec& n : spec.nodes) {
    out += "node ";
    out += n.kind;
    out += ' ';
    out += n.name;
    for (const auto& [key, value] : n.params.entries()) {
      out += ' ';
      out += key;
      out += '=';
      out += value;
    }
    out += ";\n";
  }
  for (const ChannelSpec& ch : spec.channels) {
    out += "channel ";
    out += ch.producer;
    out += ".out";
    port(ch.producerPort);
    out += " -> ";
    out += ch.consumer;
    out += ".in";
    port(ch.consumerPort);
    if (!ch.name.empty()) {
      out += " name=";
      out += ch.name;
    }
    out += ";\n";
  }
  return out;
}

NetlistSpec parseEslFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw EslError("cannot read '" + path + "'");
  std::string text;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) text.reserve(static_cast<std::size_t>(size));  // a pipe has no size
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
    text.append(buf, static_cast<std::size_t>(in.gcount()));
  return parseEsl(text, path);
}

Netlist buildEslFile(const std::string& path) {
  return parseEslFile(path).build();
}

std::string checkRoundTrip(const NetlistSpec& spec) {
  const std::string once = printEsl(spec);
  const std::string twice = printEsl(parseEsl(once, "<roundtrip>"));
  if (once == twice) return once;
  std::istringstream a(once), b(twice);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) break;
    if (!ha || !hb || la != lb)
      throw InternalError("esl round-trip drift at line " + std::to_string(line) +
                          ": '" + (ha ? la : "<eof>") + "' vs '" +
                          (hb ? lb : "<eof>") + "'");
  }
  throw InternalError("esl round-trip drift (texts differ)");
}

}  // namespace esl::frontend
