// Unit tests for the SQL lexer, parser, printer, and AST helpers.

#include <gtest/gtest.h>

#include <cctype>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace wmp::sql {
namespace {

// ---------- lexer ----------

TEST(LexerTest, KeywordsNormalizedIdentifiersLowered) {
  auto tokens = Lex("select FOO.Bar From T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "foo");
  EXPECT_TRUE((*tokens)[2].IsSymbol("."));
  EXPECT_EQ((*tokens)[3].text, "bar");
  EXPECT_TRUE((*tokens)[4].IsKeyword("FROM"));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Lex("42 -3.5 1e6 'o''brien'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "42");
  EXPECT_EQ((*tokens)[1].text, "-3.5");
  EXPECT_EQ((*tokens)[2].text, "1e6");
  EXPECT_EQ((*tokens)[3].type, TokenType::kString);
  EXPECT_EQ((*tokens)[3].text, "o'brien");
}

// The lexer's inline character classes against <cctype> in the "C" locale:
// a space byte splits two identifiers, and an isalnum byte or '_'
// continues one (lowered as tolower does).
TEST(LexerTest, CharacterClassesMatchCLocale) {
  for (int c = 1; c < 256; ++c) {
    SCOPED_TRACE(c);
    auto tokens = Lex(std::string("a") + static_cast<char>(c) + "b");
    if (std::isspace(c)) {
      ASSERT_TRUE(tokens.ok());
      ASSERT_EQ(tokens->size(), 3u);
      EXPECT_EQ((*tokens)[1].text, "b");
    } else if (std::isalnum(c) || c == '_') {
      ASSERT_TRUE(tokens.ok());
      ASSERT_EQ(tokens->size(), 2u);
      EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
      EXPECT_EQ((*tokens)[0].text,
                std::string("a") + static_cast<char>(std::tolower(c)) + "b");
    }
  }
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Lex("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
  EXPECT_TRUE((*tokens)[3].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[5].IsSymbol(">="));
  EXPECT_TRUE((*tokens)[7].IsSymbol("<>"));  // != normalized
}

TEST(LexerTest, UnterminatedStringIsError) {
  EXPECT_TRUE(Lex("select 'oops").status().IsInvalidArgument());
}

TEST(LexerTest, StrayCharacterIsError) {
  EXPECT_TRUE(Lex("select @foo").status().IsInvalidArgument());
}

TEST(LexerTest, EndTokenAlwaysPresent) {
  auto tokens = Lex("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kEnd);
}

// ---------- parser ----------

TEST(ParserTest, MinimalSelect) {
  auto q = Parse("SELECT * FROM lineitem");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->select_list.size(), 1u);
  EXPECT_TRUE(q->select_list[0].is_star);
  ASSERT_EQ(q->from.size(), 1u);
  EXPECT_EQ(q->from[0].table, "lineitem");
  EXPECT_TRUE(q->where.empty());
}

TEST(ParserTest, FullQueryShape) {
  auto q = Parse(
      "SELECT s.a, SUM(s.b), COUNT(*) FROM sales s, dates d "
      "WHERE s.date_id = d.id AND s.qty > 10 AND d.year BETWEEN 1999 AND 2001 "
      "AND s.region IN (1, 2, 3) AND s.note LIKE '%promo%' "
      "GROUP BY s.a ORDER BY s.a LIMIT 100");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_list.size(), 3u);
  EXPECT_EQ(q->select_list[1].agg, AggFunc::kSum);
  EXPECT_TRUE(q->select_list[2].is_star);
  EXPECT_EQ(q->select_list[2].agg, AggFunc::kCount);
  ASSERT_EQ(q->from.size(), 2u);
  EXPECT_EQ(q->from[0].alias, "s");
  ASSERT_EQ(q->where.size(), 5u);
  EXPECT_EQ(q->where[0].kind, Predicate::Kind::kJoin);
  EXPECT_EQ(q->where[1].op, CompareOp::kGt);
  EXPECT_EQ(q->where[2].op, CompareOp::kBetween);
  ASSERT_EQ(q->where[3].values.size(), 3u);
  EXPECT_EQ(q->where[4].op, CompareOp::kLike);
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->limit, 100);
}

TEST(ParserTest, AsAliasAndBareAlias) {
  auto q = Parse("SELECT a FROM t AS x, u y");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from[0].alias, "x");
  EXPECT_EQ(q->from[1].alias, "y");
  EXPECT_EQ(q->from[1].effective_name(), "y");
}

TEST(ParserTest, DistinctFlag) {
  auto q = Parse("SELECT DISTINCT c FROM t");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct);
}

TEST(ParserTest, JoinMustBeEquality) {
  EXPECT_TRUE(Parse("SELECT * FROM a, b WHERE a.x < b.y")
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, SyntaxErrorsAnnotated) {
  auto st = Parse("SELECT FROM t").status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("offset"), std::string::npos);
  EXPECT_TRUE(Parse("SELECT a").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT a FROM t WHERE").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT a FROM t LIMIT 'x'").status().IsInvalidArgument());
  EXPECT_TRUE(Parse("SELECT a FROM t extra junk ho")
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, MalformedNumbersRejected) {
  for (const char* sql : {"SELECT a FROM t WHERE a = 1.2.3",
                          "SELECT a FROM t WHERE a = 1e",
                          "SELECT a FROM t WHERE a = 2e5e5",
                          "SELECT a FROM t LIMIT 1e400"}) {
    const Status st = Parse(sql).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << sql << " -> " << st.ToString();
    EXPECT_NE(st.message().find("offset"), std::string::npos);
  }
  auto q = Parse("SELECT a FROM t WHERE a = 1e3 LIMIT 7");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where[0].values[0].number, 1000.0);
  EXPECT_EQ(q->limit, 7);
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(Parse("SELECT a FROM t;").ok());
}

// ---------- printer round-trip ----------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintThenParseIsIdentity) {
  auto q1 = Parse(GetParam());
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  const std::string printed = Print(*q1);
  auto q2 = Parse(printed);
  ASSERT_TRUE(q2.ok()) << "printed: " << printed << " -> "
                       << q2.status().ToString();
  EXPECT_EQ(Print(*q2), printed);  // fixed point after one round
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "SELECT * FROM t",
        "SELECT a, b FROM t WHERE a = 5",
        "SELECT DISTINCT a FROM t ORDER BY a",
        "SELECT t.a, SUM(t.b) FROM t GROUP BY t.a",
        "SELECT a FROM t WHERE a BETWEEN 1 AND 10 LIMIT 5",
        "SELECT a FROM t WHERE b IN (1, 2, 3) AND c LIKE '%x%'",
        "SELECT x.a, COUNT(*) FROM t x, u y WHERE x.id = y.id AND x.v > 1.5 "
        "GROUP BY x.a ORDER BY x.a LIMIT 10",
        "SELECT MIN(a), MAX(b), AVG(c) FROM t WHERE d <> 0"));

// ---------- AST helpers ----------

TEST(AstTest, HasAggregationAndPredicateFilters) {
  auto q = Parse(
      "SELECT s.a, SUM(s.b) FROM sales s, dates d "
      "WHERE s.did = d.id AND s.qty > 10 AND d.year = 2000 GROUP BY s.a");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->HasAggregation());
  EXPECT_EQ(q->JoinPredicates().size(), 1u);
  EXPECT_EQ(q->LocalPredicates("s").size(), 1u);
  EXPECT_EQ(q->LocalPredicates("d").size(), 1u);
  EXPECT_EQ(q->LocalPredicates("zzz").size(), 0u);
}

TEST(AstTest, LiteralPrinting) {
  EXPECT_EQ(Literal::Number(42).ToString(), "42");
  EXPECT_EQ(Literal::Number(2.5).ToString(), "2.5");
  EXPECT_EQ(Literal::String("abc").ToString(), "'abc'");
}

TEST(AstTest, PredicateTrueSelectivityDefaultsUnknown) {
  auto q = Parse("SELECT a FROM t WHERE a = 1");
  ASSERT_TRUE(q.ok());
  EXPECT_LT(q->where[0].true_selectivity, 0.0);
}

}  // namespace
}  // namespace wmp::sql
