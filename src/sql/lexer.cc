#include "sql/lexer.h"

#include "util/strings.h"

namespace wmp::sql {

namespace {

// Canonical spellings, grouped by length; keyword tokens view into these.
constexpr std::string_view kKeywords2[] = {"AS", "BY", "IN", "ON", "OR"};
constexpr std::string_view kKeywords3[] = {"AND", "ASC", "AVG", "MAX",
                                           "MIN", "NOT", "SUM"};
constexpr std::string_view kKeywords4[] = {"DESC", "FROM", "JOIN", "LIKE"};
constexpr std::string_view kKeywords5[] = {"COUNT", "GROUP", "LIMIT", "ORDER",
                                           "WHERE"};
constexpr std::string_view kKeywords6[] = {"SELECT"};
constexpr std::string_view kKeywords7[] = {"BETWEEN"};
constexpr std::string_view kKeywords8[] = {"DISTINCT"};

// The keyword in `keywords` equal to `word` ignoring ASCII case, or empty.
// `word` has the keywords' length. Keywords are all letters, so clearing
// bit 5 of a byte upper-cases exactly the bytes that can match.
template <size_t N>
std::string_view FindIn(const std::string_view (&keywords)[N],
                        std::string_view word) {
  for (std::string_view kw : keywords) {
    size_t j = 0;
    while (j < kw.size() && (word[j] & ~0x20) == kw[j]) ++j;
    if (j == kw.size()) return kw;
  }
  return {};
}

// The canonical keyword equal to `word` ignoring ASCII case, or empty.
std::string_view FindKeyword(std::string_view word) {
  switch (word.size()) {
    case 2: return FindIn(kKeywords2, word);
    case 3: return FindIn(kKeywords3, word);
    case 4: return FindIn(kKeywords4, word);
    case 5: return FindIn(kKeywords5, word);
    case 6: return FindIn(kKeywords6, word);
    case 7: return FindIn(kKeywords7, word);
    case 8: return FindIn(kKeywords8, word);
  }
  return {};
}

// Inline ASCII character classes: the C-locale answers of <cctype>
// without its per-call locale dispatch (the process never calls
// setlocale, so the results are identical).
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsUpper(char c) { return c >= 'A' && c <= 'Z'; }
constexpr bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
constexpr bool IsIdentStart(char c) {
  return IsUpper(c) || IsLower(c) || c == '_';
}
constexpr bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }
constexpr char ToLowerAscii(char c) { return IsUpper(c) ? c - 'A' + 'a' : c; }

const char* SymbolText(char c) {
  switch (c) {
    case '(': return "(";
    case ')': return ")";
    case ',': return ",";
    case '.': return ".";
    case '=': return "=";
    case '<': return "<";
    case '>': return ">";
    case '*': return "*";
    case ';': return ";";
  }
  return "?";
}

}  // namespace

bool IsReservedKeyword(std::string_view upper_word) {
  return !FindKeyword(upper_word).empty();
}

Status LexInto(std::string_view input, util::Arena* arena,
               std::vector<Token>* out) {
  out->clear();
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (IsAsciiSpace(c)) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      bool has_upper = false;
      while (i < n && IsIdentChar(input[i])) {
        has_upper |= IsUpper(input[i]);
        ++i;
      }
      const std::string_view word = input.substr(start, i - start);
      const std::string_view kw = FindKeyword(word);
      if (!kw.empty()) {
        out->push_back({TokenType::kKeyword, kw, start});
        continue;
      }
      std::string_view text = word;
      if (has_upper) {  // lowered copy in the arena
        char* lowered = arena->AllocateArray<char>(word.size());
        for (size_t j = 0; j < word.size(); ++j) {
          lowered[j] = ToLowerAscii(word[j]);
        }
        text = {lowered, word.size()};
      }
      out->push_back({TokenType::kIdentifier, text, start});
      continue;
    }
    if (IsDigit(c) || (c == '-' && i + 1 < n && IsDigit(input[i + 1]))) {
      ++i;  // sign or first digit
      while (i < n && (IsDigit(input[i]) ||
                       input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
                       ((input[i] == '+' || input[i] == '-') &&
                        (input[i - 1] == 'e' || input[i - 1] == 'E')))) {
        ++i;
      }
      out->push_back(
          {TokenType::kNumber, input.substr(start, i - start), start});
      continue;
    }
    if (c == '"') {  // quoted identifier: case-preserved, "" escapes a quote
      ++i;
      size_t escapes = 0;
      const size_t body = i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '"') {
          if (i + 1 < n && input[i + 1] == '"') {
            ++escapes;
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated quoted identifier at offset %zu", start));
      }
      std::string_view text = input.substr(body, i - body);
      ++i;  // closing quote
      if (text.empty()) {
        return Status::InvalidArgument(
            StrFormat("empty quoted identifier at offset %zu", start));
      }
      if (escapes != 0) {  // unescape into the arena
        char* buf = arena->AllocateArray<char>(text.size() - escapes);
        size_t w = 0;
        for (size_t r = 0; r < text.size(); ++r) {
          buf[w++] = text[r];
          if (text[r] == '"') ++r;  // skip the doubled quote
        }
        text = {buf, w};
      }
      out->push_back({TokenType::kIdentifier, text, start});
      continue;
    }
    if (c == '\'') {
      ++i;
      size_t escapes = 0;
      const size_t body = i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {
            ++escapes;
            i += 2;
            continue;
          }
          closed = true;
          break;
        }
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      std::string_view text = input.substr(body, i - body);
      ++i;  // closing quote
      if (escapes != 0) {
        char* buf = arena->AllocateArray<char>(text.size() - escapes);
        size_t w = 0;
        for (size_t r = 0; r < text.size(); ++r) {
          buf[w++] = text[r];
          if (text[r] == '\'') ++r;
        }
        text = {buf, w};
      }
      out->push_back({TokenType::kString, text, start});
      continue;
    }
    // Two-character operators first.
    if (i + 1 < n) {
      const std::string_view two = input.substr(i, 2);
      if (two == "<>" || two == "!=") {
        out->push_back({TokenType::kSymbol, "<>", start});
        i += 2;
        continue;
      }
      if (two == "<=" || two == ">=") {
        out->push_back({TokenType::kSymbol, two == "<=" ? "<=" : ">=", start});
        i += 2;
        continue;
      }
    }
    switch (c) {
      case '(':
      case ')':
      case ',':
      case '.':
      case '=':
      case '<':
      case '>':
      case '*':
      case ';':
        out->push_back({TokenType::kSymbol, SymbolText(c), start});
        ++i;
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
  }
  out->push_back({TokenType::kEnd, {}, n});
  return Status::OK();
}

Result<std::vector<Token>> Lex(const std::string& input) {
  thread_local util::Arena arena(8 << 10);
  arena.Reset();
  // Copy the input into the arena so the tokens own no view into `input`
  // (callers routinely pass temporaries).
  const std::string_view stable = arena.CopyString(input);
  std::vector<Token> tokens;
  WMP_RETURN_IF_ERROR(LexInto(stable, &arena, &tokens));
  return tokens;
}

}  // namespace wmp::sql
