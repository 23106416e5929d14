//===- Parser.cpp - Textual IR parsing ----------------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "support/Telemetry.h"

#include <charconv>
#include <cstdlib>
#include <map>
#include <memory>
#include <unordered_map>

using namespace tdl;

namespace {

bool isSpace(char C) {
  return C == ' ' || C == '\n' || C == '\t' || C == '\r' || C == '\v' ||
         C == '\f';
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) { return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z'); }
bool isAlnum(char C) { return isAlpha(C) || isDigit(C); }

/// Character-level recursive-descent parser for the generic op format.
/// Identifiers, op names and SSA names are views into the source; line and
/// column are computed from the byte offset only when a location is needed.
class Parser {
public:
  Parser(Context &Ctx, std::string_view Source, std::string_view BufferName)
      : Ctx(Ctx), Source(Source), FileLoc(Location::get(BufferName, 0, 0)) {}

  Operation *parseTopLevelOp() {
    pushScope();
    Operation *Op = parseOperation(/*DestBlock=*/nullptr);
    popScope();
    if (!Op)
      return nullptr;
    skipWs();
    if (!atEnd()) {
      error("expected end of input after top-level operation");
      Op->destroy();
      return nullptr;
    }
    return Op;
  }

  Type parseTypeOnly() {
    Type Ty = parseType();
    if (!Ty)
      return Type();
    skipWs();
    if (!atEnd()) {
      error("expected end of input after type");
      return Type();
    }
    return Ty;
  }

  /// Operations created so far.
  int64_t getNumOps() const { return NumOps; }

private:
  //===--------------------------------------------------------------------===//
  // Character-level helpers
  //===--------------------------------------------------------------------===//

  bool atEnd() const { return Pos >= Source.size(); }
  char peek() const { return atEnd() ? '\0' : Source[Pos]; }
  char peekAt(size_t Offset) const {
    return Pos + Offset >= Source.size() ? '\0' : Source[Pos + Offset];
  }

  void skipWs() {
    while (!atEnd()) {
      char C = Source[Pos];
      if (isSpace(C)) {
        ++Pos;
        continue;
      }
      if (C == '/' && peekAt(1) == '/') {
        size_t Newline = Source.find('\n', Pos);
        Pos = Newline == std::string_view::npos ? Source.size() : Newline;
        continue;
      }
      break;
    }
  }

  /// After whitespace, consumes \p Literal if it is next; returns success.
  bool tryConsume(std::string_view Literal) {
    skipWs();
    if (Source.compare(Pos, Literal.size(), Literal) != 0)
      return false;
    // Avoid consuming a prefix of a longer identifier.
    if (!Literal.empty() && (isAlnum(Literal.back()) || Literal.back() == '_')) {
      char Next = peekAt(Literal.size());
      if (isAlnum(Next) || Next == '_' || Next == '.')
        return false;
    }
    Pos += Literal.size();
    return true;
  }

  LogicalResult expect(std::string_view Literal) {
    if (tryConsume(Literal))
      return success();
    return error("expected '" + std::string(Literal) + "'");
  }

  /// The file:line:col location of byte \p Offset. Lines are counted from
  /// the last position asked for, so the forward-moving parser scans the
  /// source for newlines once overall.
  Location locAt(size_t Offset) {
    if (Offset < LineCursor) {
      LineCursor = 0;
      CursorLine = 1;
      CursorLineStart = 0;
    }
    for (size_t I = LineCursor; I < Offset; ++I) {
      if (Source[I] == '\n') {
        ++CursorLine;
        CursorLineStart = I + 1;
      }
    }
    LineCursor = Offset;
    return FileLoc.withPosition(CursorLine, Offset - CursorLineStart + 1);
  }

  LogicalResult error(std::string_view Message) {
    Ctx.emitError(locAt(Pos)) << Message;
    return failure();
  }

  static bool isIdentStart(char C) { return isAlpha(C) || C == '_'; }
  static bool isIdentBody(char C) {
    return isAlnum(C) || C == '_' || C == '.' || C == '$';
  }

  /// Parses a bare identifier such as `sym_name` or `scf.for`.
  std::string_view parseBareId() {
    skipWs();
    if (!isIdentStart(peek()))
      return {};
    size_t Start = Pos;
    while (!atEnd() && isIdentBody(Source[Pos]))
      ++Pos;
    return Source.substr(Start, Pos - Start);
  }

  /// Parses `%name` style suffixed identifiers (after the sigil).
  std::string_view parseSuffixId() {
    size_t Start = Pos;
    while (!atEnd() && (isAlnum(Source[Pos]) || Source[Pos] == '_'))
      ++Pos;
    return Source.substr(Start, Pos - Start);
  }

  bool parseOptionalInt(int64_t &Value) {
    skipWs();
    size_t Start = Pos;
    bool Negative = false;
    if (peek() == '-' && isDigit(peekAt(1))) {
      ++Pos;
      Negative = true;
    }
    if (!isDigit(peek())) {
      Pos = Start;
      return false;
    }
    int64_t Magnitude = 0;
    while (isDigit(peek()))
      Magnitude = Magnitude * 10 + (Source[Pos++] - '0');
    Value = Negative ? -Magnitude : Magnitude;
    return true;
  }

  /// Parses a string literal. Without escapes \p Value views the source;
  /// otherwise it views \p Decoded, which holds the unescaped text.
  LogicalResult parseString(std::string_view &Value, std::string &Decoded) {
    skipWs();
    if (peek() != '"')
      return error("expected string literal");
    size_t Start = ++Pos;
    while (!atEnd() && Source[Pos] != '"' && Source[Pos] != '\\')
      ++Pos;
    if (peek() == '"') {
      Value = Source.substr(Start, Pos - Start);
      ++Pos; // closing quote
      return success();
    }
    Decoded.assign(Source.substr(Start, Pos - Start));
    while (!atEnd() && peek() != '"') {
      char C = Source[Pos++];
      if (C == '\\' && !atEnd()) {
        char Escaped = Source[Pos++];
        switch (Escaped) {
        case 'n':
          Decoded += '\n';
          break;
        case 't':
          Decoded += '\t';
          break;
        default:
          Decoded += Escaped;
        }
        continue;
      }
      Decoded += C;
    }
    if (atEnd())
      return error("unterminated string literal");
    ++Pos; // closing quote
    Value = Decoded;
    return success();
  }

  //===--------------------------------------------------------------------===//
  // Value and block scoping
  //===--------------------------------------------------------------------===//

  /// SSA names live in one flat table: Bindings holds every definition in
  /// scope, innermost last, and Visible maps a name to its innermost
  /// binding (index + 1; 0 once the scope that defined it has closed).
  /// Each binding remembers the one it shadows, which popScope restores.
  struct ValueBinding {
    std::string_view Name;
    Value V;
    uint32_t Shadowed;
  };

  void pushScope() { ScopeStarts.push_back(Bindings.size()); }

  void popScope() {
    for (size_t Start = ScopeStarts.back(); Bindings.size() > Start;) {
      const ValueBinding &B = Bindings.back();
      Visible[B.Name] = B.Shadowed;
      Bindings.pop_back();
    }
    ScopeStarts.pop_back();
  }

  void defineValue(std::string_view Name, Value V) {
    uint32_t &Innermost = Visible[Name];
    Bindings.push_back({Name, V, Innermost});
    Innermost = static_cast<uint32_t>(Bindings.size());
  }

  Value lookupValue(std::string_view Name) const {
    auto It = Visible.find(Name);
    if (It == Visible.end() || It->second == 0)
      return Value();
    return Bindings[It->second - 1].V;
  }

  /// Per-region block label resolution with forward references.
  struct RegionScope {
    Region *TheRegion;
    std::map<std::string_view, Block *> Labels;
    std::map<std::string_view, std::unique_ptr<Block>> Pending;
  };

  Block *getOrCreateBlock(RegionScope &Scope, std::string_view Label) {
    auto It = Scope.Labels.find(Label);
    if (It != Scope.Labels.end())
      return It->second;
    auto Pending = std::make_unique<Block>();
    Block *Result = Pending.get();
    Scope.Labels[Label] = Result;
    Scope.Pending[Label] = std::move(Pending);
    return Result;
  }

  /// Attaches the block for \p Label to the region (defining it).
  Block *defineBlock(RegionScope &Scope, std::string_view Label) {
    auto PendingIt = Scope.Pending.find(Label);
    if (PendingIt != Scope.Pending.end()) {
      std::unique_ptr<Block> Owned = std::move(PendingIt->second);
      Scope.Pending.erase(PendingIt);
      return Scope.TheRegion->insertBlockBefore(nullptr, std::move(Owned));
    }
    if (Scope.Labels.count(Label)) {
      error("redefinition of block label '^" + std::string(Label) + "'");
      return nullptr;
    }
    Block *Result = Scope.TheRegion->addBlock();
    Scope.Labels[Label] = Result;
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  Type parseType() {
    skipWs();
    if (peek() == '(')
      return parseFunctionType();
    if (peek() == '!')
      return parseTransformType();
    std::string_view Id = parseBareId();
    if (Id.empty()) {
      error("expected type");
      return Type();
    }
    if (Id == "index")
      return IndexType::get(Ctx);
    if (Id == "none")
      return NoneType::get(Ctx);
    if (Id.size() > 1 && (Id[0] == 'i' || Id[0] == 'f')) {
      bool AllDigits = true;
      unsigned Width = 0;
      for (size_t I = 1; I < Id.size(); ++I) {
        AllDigits &= isDigit(Id[I]);
        Width = Width * 10 + (Id[I] - '0');
      }
      if (AllDigits) {
        if (Id[0] == 'i')
          return IntegerType::get(Ctx, Width);
        if (Width == 32 || Width == 64)
          return FloatType::get(Ctx, Width);
        error("unsupported float width f" + std::to_string(Width));
        return Type();
      }
    }
    if (Id == "memref")
      return parseMemRefType();
    if (Id == "tensor")
      return parseTensorType();
    error("unknown type '" + std::string(Id) + "'");
    return Type();
  }

  /// Parses `NxMx...x` dims; stops when the next token is not a dimension.
  LogicalResult parseShape(std::vector<int64_t> &Shape) {
    while (true) {
      skipWs();
      char C = peek();
      int64_t Dim;
      if (C == '?') {
        ++Pos;
        Dim = kDynamic;
      } else if (isDigit(C)) {
        parseOptionalInt(Dim);
      } else {
        return success();
      }
      Shape.push_back(Dim);
      if (peek() != 'x')
        return error("expected 'x' after dimension");
      ++Pos;
    }
  }

  Type parseMemRefType() {
    if (failed(expect("<")))
      return Type();
    std::vector<int64_t> Shape;
    if (failed(parseShape(Shape)))
      return Type();
    Type ElementType = parseType();
    if (!ElementType)
      return Type();
    if (tryConsume(",")) {
      if (failed(expect("strided")) || failed(expect("<")) ||
          failed(expect("[")))
        return Type();
      std::vector<int64_t> Strides;
      if (!tryConsume("]")) {
        do {
          int64_t Stride;
          skipWs();
          if (peek() == '?') {
            ++Pos;
            Stride = kDynamic;
          } else if (!parseOptionalInt(Stride)) {
            error("expected stride");
            return Type();
          }
          Strides.push_back(Stride);
        } while (tryConsume(","));
        if (failed(expect("]")))
          return Type();
      }
      if (failed(expect(",")) || failed(expect("offset")) ||
          failed(expect(":")))
        return Type();
      int64_t Offset;
      skipWs();
      if (peek() == '?') {
        ++Pos;
        Offset = kDynamic;
      } else if (!parseOptionalInt(Offset)) {
        error("expected offset");
        return Type();
      }
      if (failed(expect(">")) || failed(expect(">")))
        return Type();
      return MemRefType::getStrided(Ctx, std::move(Shape), ElementType, Offset,
                                    std::move(Strides));
    }
    if (failed(expect(">")))
      return Type();
    return MemRefType::get(Ctx, std::move(Shape), ElementType);
  }

  Type parseTensorType() {
    if (failed(expect("<")))
      return Type();
    std::vector<int64_t> Shape;
    if (failed(parseShape(Shape)))
      return Type();
    Type ElementType = parseType();
    if (!ElementType || failed(expect(">")))
      return Type();
    return TensorType::get(Ctx, std::move(Shape), ElementType);
  }

  Type parseFunctionType() {
    if (failed(expect("(")))
      return Type();
    std::vector<Type> Inputs;
    if (!tryConsume(")")) {
      do {
        Type Input = parseType();
        if (!Input)
          return Type();
        Inputs.push_back(Input);
      } while (tryConsume(","));
      if (failed(expect(")")))
        return Type();
    }
    if (failed(expect("->")))
      return Type();
    std::vector<Type> Results;
    skipWs();
    if (peek() == '(') {
      ++Pos;
      if (!tryConsume(")")) {
        do {
          Type Result = parseType();
          if (!Result)
            return Type();
          Results.push_back(Result);
        } while (tryConsume(","));
        if (failed(expect(")")))
          return Type();
      }
    } else {
      Type Result = parseType();
      if (!Result)
        return Type();
      Results.push_back(Result);
    }
    return FunctionType::get(Ctx, std::move(Inputs), std::move(Results));
  }

  Type parseTransformType() {
    if (tryConsume("!transform.any_op"))
      return TransformAnyOpType::get(Ctx);
    if (tryConsume("!transform.any_value"))
      return TransformAnyValueType::get(Ctx);
    if (tryConsume("!transform.param"))
      return TransformParamType::get(Ctx);
    if (tryConsume("!transform.op")) {
      if (failed(expect("<")))
        return Type();
      std::string_view OpName;
      std::string Decoded;
      if (failed(parseString(OpName, Decoded)) || failed(expect(">")))
        return Type();
      return TransformOpType::get(Ctx, OpName);
    }
    error("unknown '!' type");
    return Type();
  }

  //===--------------------------------------------------------------------===//
  // Attributes
  //===--------------------------------------------------------------------===//

  Attribute parseAttribute() {
    skipWs();
    char C = peek();
    if (C == '"') {
      std::string_view Value;
      std::string Decoded;
      if (failed(parseString(Value, Decoded)))
        return Attribute();
      return StringAttr::get(Ctx, Value);
    }
    if (C == '@') {
      ++Pos;
      std::string_view Name = parseBareId();
      if (Name.empty()) {
        error("expected symbol name after '@'");
        return Attribute();
      }
      return SymbolRefAttr::get(Ctx, Name);
    }
    if (C == '[') {
      ++Pos;
      std::vector<Attribute> Elements;
      if (!tryConsume("]")) {
        do {
          Attribute Element = parseAttribute();
          if (!Element)
            return Attribute();
          Elements.push_back(Element);
        } while (tryConsume(","));
        if (failed(expect("]")))
          return Attribute();
      }
      return ArrayAttr::get(Ctx, std::move(Elements));
    }
    if (C == '-' || isDigit(C))
      return parseNumberAttr();
    if (C == '(' || C == '!')
      return parseTypeAttrTail();

    // Keyword-led attributes.
    size_t Save = Pos;
    std::string_view Id = parseBareId();
    if (Id == "true")
      return BoolAttr::get(Ctx, true);
    if (Id == "false")
      return BoolAttr::get(Ctx, false);
    if (Id == "unit")
      return UnitAttr::get(Ctx);
    if (Id == "dense")
      return parseDenseAttr();
    if (Id == "affine_map")
      return parseAffineMapAttr();
    // Otherwise treat as a type attribute (e.g. `index`, `memref<...>`).
    Pos = Save;
    return parseTypeAttrTail();
  }

  Attribute parseTypeAttrTail() {
    Type Ty = parseType();
    if (!Ty)
      return Attribute();
    return TypeAttr::get(Ctx, Ty);
  }

  Attribute parseNumberAttr() {
    skipWs();
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (isDigit(peek()))
      ++Pos;
    bool IsFloat = false;
    if (peek() == '.') {
      IsFloat = true;
      ++Pos;
      while (isDigit(peek()))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      char Next = peekAt(1);
      if (isDigit(Next) || Next == '-' || Next == '+') {
        IsFloat = true;
        ++Pos;
        if (peek() == '-' || peek() == '+')
          ++Pos;
        while (isDigit(peek()))
          ++Pos;
      }
    }
    std::string_view Text = Source.substr(Start, Pos - Start);
    if (IsFloat) {
      double Value = toDouble(Text);
      Type Ty = FloatType::getF64(Ctx);
      if (tryConsume(":")) {
        Ty = parseType();
        if (!Ty)
          return Attribute();
      }
      if (!Ty.isFloat()) {
        error("float literal requires float type");
        return Attribute();
      }
      return FloatAttr::get(Ctx, Value, Ty);
    }
    int64_t Value = toInt(Text);
    Type Ty = IntegerType::get(Ctx, 64);
    if (tryConsume(":")) {
      Ty = parseType();
      if (!Ty)
        return Attribute();
    }
    if (Ty.isFloat())
      return FloatAttr::get(Ctx, static_cast<double>(Value), Ty);
    if (!Ty.isIntOrIndex()) {
      error("integer literal requires int/index type");
      return Attribute();
    }
    return IntegerAttr::get(Ctx, Value, Ty);
  }

  /// strtoll/strtod semantics (saturation, a lone "-" reads 0) without
  /// copying the text in the common case.
  static int64_t toInt(std::string_view Text) {
    int64_t Value = 0;
    auto [End, Error] =
        std::from_chars(Text.data(), Text.data() + Text.size(), Value);
    if (Error == std::errc() && End == Text.data() + Text.size())
      return Value;
    return std::strtoll(std::string(Text).c_str(), nullptr, 10);
  }
  static double toDouble(std::string_view Text) {
    double Value = 0;
    auto [End, Error] =
        std::from_chars(Text.data(), Text.data() + Text.size(), Value);
    if (Error == std::errc() && End == Text.data() + Text.size())
      return Value;
    return std::strtod(std::string(Text).c_str(), nullptr);
  }

  Attribute parseDenseAttr() {
    if (failed(expect("<")))
      return Attribute();
    std::vector<double> Values;
    bool IsSplat = false;
    skipWs();
    if (peek() == '[') {
      ++Pos;
      if (!tryConsume("]")) {
        do {
          double Value;
          if (failed(parseDoubleLiteral(Value)))
            return Attribute();
          Values.push_back(Value);
        } while (tryConsume(","));
        if (failed(expect("]")))
          return Attribute();
      }
    } else {
      double Value;
      if (failed(parseDoubleLiteral(Value)))
        return Attribute();
      Values.push_back(Value);
      IsSplat = true;
    }
    if (failed(expect(">")) || failed(expect(":")))
      return Attribute();
    Type Ty = parseType();
    if (!Ty)
      return Attribute();
    TensorType Tensor = Ty.dyn_cast<TensorType>();
    if (!Tensor) {
      error("dense attribute requires tensor type");
      return Attribute();
    }
    if (IsSplat)
      return DenseElementsAttr::getSplat(Ctx, Tensor, Values[0]);
    return DenseElementsAttr::get(Ctx, Tensor, std::move(Values));
  }

  LogicalResult parseDoubleLiteral(double &Value) {
    skipWs();
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (isDigit(peek()))
      ++Pos;
    if (peek() == '.') {
      ++Pos;
      while (isDigit(peek()))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '-' || peek() == '+')
        ++Pos;
      while (isDigit(peek()))
        ++Pos;
    }
    if (Pos == Start)
      return error("expected numeric literal");
    Value = toDouble(Source.substr(Start, Pos - Start));
    return success();
  }

  Attribute parseAffineMapAttr() {
    if (failed(expect("<")))
      return Attribute();
    AffineMap Map = parseAffineMapBody();
    if (!Map)
      return Attribute();
    if (failed(expect(">")))
      return Attribute();
    return AffineMapAttr::get(Ctx, Map);
  }

  AffineMap parseAffineMapBody() {
    std::map<std::string_view, AffineExpr> Names;
    unsigned NumDims = 0, NumSymbols = 0;
    if (failed(expect("(")))
      return AffineMap();
    if (!tryConsume(")")) {
      do {
        std::string_view Name = parseBareId();
        if (Name.empty()) {
          error("expected dimension name");
          return AffineMap();
        }
        Names[Name] = getAffineDimExpr(Ctx, NumDims++);
      } while (tryConsume(","));
      if (failed(expect(")")))
        return AffineMap();
    }
    if (tryConsume("[")) {
      if (!tryConsume("]")) {
        do {
          std::string_view Name = parseBareId();
          if (Name.empty()) {
            error("expected symbol name");
            return AffineMap();
          }
          Names[Name] = getAffineSymbolExpr(Ctx, NumSymbols++);
        } while (tryConsume(","));
        if (failed(expect("]")))
          return AffineMap();
      }
    }
    if (failed(expect("->")) || failed(expect("(")))
      return AffineMap();
    std::vector<AffineExpr> Results;
    if (!tryConsume(")")) {
      do {
        AffineExpr Expr = parseAffineExpr(Names);
        if (!Expr)
          return AffineMap();
        Results.push_back(Expr);
      } while (tryConsume(","));
      if (failed(expect(")")))
        return AffineMap();
    }
    return AffineMap::get(Ctx, NumDims, NumSymbols, std::move(Results));
  }

  AffineExpr parseAffineExpr(const std::map<std::string_view, AffineExpr> &Names) {
    AffineExpr Lhs = parseAffineTerm(Names);
    if (!Lhs)
      return AffineExpr();
    while (true) {
      if (tryConsume("+")) {
        AffineExpr Rhs = parseAffineTerm(Names);
        if (!Rhs)
          return AffineExpr();
        Lhs = Lhs + Rhs;
        continue;
      }
      if (tryConsume("-")) {
        AffineExpr Rhs = parseAffineTerm(Names);
        if (!Rhs)
          return AffineExpr();
        Lhs = Lhs - Rhs;
        continue;
      }
      return Lhs;
    }
  }

  AffineExpr parseAffineTerm(const std::map<std::string_view, AffineExpr> &Names) {
    AffineExpr Lhs = parseAffineFactor(Names);
    if (!Lhs)
      return AffineExpr();
    while (true) {
      AffineExprKind Kind;
      if (tryConsume("*"))
        Kind = AffineExprKind::Mul;
      else if (tryConsume("floordiv"))
        Kind = AffineExprKind::FloorDiv;
      else if (tryConsume("ceildiv"))
        Kind = AffineExprKind::CeilDiv;
      else if (tryConsume("mod"))
        Kind = AffineExprKind::Mod;
      else
        return Lhs;
      AffineExpr Rhs = parseAffineFactor(Names);
      if (!Rhs)
        return AffineExpr();
      Lhs = getAffineBinaryExpr(Kind, Lhs, Rhs);
    }
  }

  AffineExpr parseAffineFactor(const std::map<std::string_view, AffineExpr> &Names) {
    skipWs();
    if (tryConsume("(")) {
      AffineExpr Expr = parseAffineExpr(Names);
      if (!Expr || failed(expect(")")))
        return AffineExpr();
      return Expr;
    }
    int64_t Value;
    if (parseOptionalInt(Value))
      return getAffineConstantExpr(Ctx, Value);
    std::string_view Id = parseBareId();
    auto It = Names.find(Id);
    if (It == Names.end()) {
      error("unknown affine id '" + std::string(Id) + "'");
      return AffineExpr();
    }
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Operations, regions, blocks
  //===--------------------------------------------------------------------===//

  /// Parses one operation. When \p DestBlock is set, the op is appended to
  /// it; region scopes must already be active.
  Operation *parseOperation(Block *DestBlock) {
    skipWs();
    // Optional result list.
    std::vector<std::string_view> ResultNames;
    if (peek() == '%') {
      do {
        skipWs();
        if (peek() != '%') {
          error("expected result name");
          return nullptr;
        }
        ++Pos;
        ResultNames.push_back(parseSuffixId());
      } while (tryConsume(","));
      if (failed(expect("=")))
        return nullptr;
    }

    Location OpLoc = locAt(Pos);
    std::string_view OpName;
    std::string DecodedName;
    if (failed(parseString(OpName, DecodedName)))
      return nullptr;

    // Operands.
    if (failed(expect("(")))
      return nullptr;
    std::vector<Value> Operands;
    if (!tryConsume(")")) {
      do {
        skipWs();
        if (peek() != '%') {
          error("expected operand");
          return nullptr;
        }
        ++Pos;
        std::string_view Name = parseSuffixId();
        Value Operand = lookupValue(Name);
        if (!Operand) {
          error("use of undefined value '%" + std::string(Name) + "'");
          return nullptr;
        }
        Operands.push_back(Operand);
      } while (tryConsume(","));
      if (failed(expect(")")))
        return nullptr;
    }

    // Successors.
    std::vector<std::string_view> SuccessorLabels;
    if (tryConsume("[")) {
      do {
        skipWs();
        if (peek() != '^') {
          error("expected block label");
          return nullptr;
        }
        ++Pos;
        SuccessorLabels.push_back(parseSuffixId());
      } while (tryConsume(","));
      if (failed(expect("]")))
        return nullptr;
    }

    // Regions: `({...}, {...})`. Distinguished from other constructs by a
    // lookahead for '(' immediately followed (modulo whitespace) by '{'.
    skipWs();
    bool HasRegions = false;
    if (peek() == '(') {
      size_t Ahead = Pos + 1;
      while (Ahead < Source.size() && isSpace(Source[Ahead]))
        ++Ahead;
      HasRegions = Ahead < Source.size() && Source[Ahead] == '{';
    }

    // Region bodies are parsed into detached region holders and attached to
    // the operation once it exists (operand/result types come later in the
    // generic syntax).
    std::vector<std::unique_ptr<Region>> ParsedRegions;
    if (HasRegions) {
      if (failed(expect("(")))
        return nullptr;
      do {
        auto RegionHolder = std::make_unique<Region>(nullptr);
        if (failed(parseRegionInto(*RegionHolder)))
          return nullptr;
        ParsedRegions.push_back(std::move(RegionHolder));
      } while (tryConsume(","));
      if (failed(expect(")")))
        return nullptr;
    }

    // Attribute dictionary.
    std::vector<NamedAttribute> Attrs;
    if (tryConsume("{")) {
      if (!tryConsume("}")) {
        do {
          std::string_view Name = parseBareId();
          if (Name.empty()) {
            error("expected attribute name");
            return nullptr;
          }
          Attribute Value;
          if (tryConsume("=")) {
            Value = parseAttribute();
            if (!Value)
              return nullptr;
          } else {
            Value = UnitAttr::get(Ctx);
          }
          Attrs.push_back({std::string(Name), Value});
        } while (tryConsume(","));
        if (failed(expect("}")))
          return nullptr;
      }
    }

    // Type signature. Operand types are checked against the operands as
    // they are read; the first mismatch is reported once the count is known
    // to agree.
    if (failed(expect(":")) || failed(expect("(")))
      return nullptr;
    size_t NumOperandTypes = 0;
    Type MismatchedType;
    size_t MismatchIndex = 0;
    if (!tryConsume(")")) {
      do {
        Type Ty = parseType();
        if (!Ty)
          return nullptr;
        if (!MismatchedType && NumOperandTypes < Operands.size() &&
            Operands[NumOperandTypes].getType() != Ty) {
          MismatchedType = Ty;
          MismatchIndex = NumOperandTypes;
        }
        ++NumOperandTypes;
      } while (tryConsume(","));
      if (failed(expect(")")))
        return nullptr;
    }
    if (failed(expect("->")))
      return nullptr;
    std::vector<Type> ResultTypes;
    skipWs();
    if (peek() == '(') {
      ++Pos;
      if (!tryConsume(")")) {
        do {
          Type Ty = parseType();
          if (!Ty)
            return nullptr;
          ResultTypes.push_back(Ty);
        } while (tryConsume(","));
        if (failed(expect(")")))
          return nullptr;
      }
    } else {
      Type Ty = parseType();
      if (!Ty)
        return nullptr;
      ResultTypes.push_back(Ty);
    }

    if (NumOperandTypes != Operands.size()) {
      Ctx.emitError(OpLoc) << "operand type count (" << NumOperandTypes
                           << ") does not match operand count ("
                           << Operands.size() << ")";
      return nullptr;
    }
    if (MismatchedType) {
      Ctx.emitError(OpLoc)
          << "operand " << MismatchIndex << " type mismatch: value has "
          << Operands[MismatchIndex].getType().str() << ", signature says "
          << MismatchedType.str();
      return nullptr;
    }
    if (ResultTypes.size() != ResultNames.size()) {
      Ctx.emitError(OpLoc) << "result type count (" << ResultTypes.size()
                           << ") does not match result count ("
                           << ResultNames.size() << ")";
      return nullptr;
    }

    const OpInfo *Info = Ctx.getOrCreateOpInfo(OpName);
    if (!Info) {
      Ctx.emitError(OpLoc) << "unregistered operation '" << OpName
                           << "' in a dialect that does not allow unknown ops";
      return nullptr;
    }

    // create(Ctx, Info, State) takes the name from Info.
    OperationState State(OpLoc, {});
    State.Operands = std::move(Operands);
    State.ResultTypes = std::move(ResultTypes);
    State.Attributes = std::move(Attrs);
    State.NumRegions = ParsedRegions.size();
    for (std::string_view Label : SuccessorLabels) {
      assert(!RegionStack.empty() && "successors outside a region");
      State.Successors.push_back(getOrCreateBlock(*RegionStack.back(), Label));
    }

    Operation *Op = Operation::create(Ctx, Info, std::move(State));
    ++NumOps;
    for (unsigned I = 0; I < ParsedRegions.size(); ++I)
      Op->getRegion(I).takeBody(*ParsedRegions[I]);

    if (DestBlock)
      DestBlock->push_back(Op);
    for (unsigned I = 0; I < ResultNames.size(); ++I)
      defineValue(ResultNames[I], Op->getResult(I));
    return Op;
  }

  LogicalResult parseRegionInto(Region &TheRegion) {
    if (failed(expect("{")))
      return failure();
    RegionScope Scope;
    Scope.TheRegion = &TheRegion;
    RegionStack.push_back(&Scope);
    pushScope();

    skipWs();
    // An unlabeled entry block is allowed when the region is non-empty and
    // does not start with a label.
    if (peek() != '}' && peek() != '^') {
      if (failed(parseBlockBody(TheRegion.addBlock())))
        return cleanupRegion();
    }
    while (true) {
      skipWs();
      if (peek() == '}') {
        ++Pos;
        break;
      }
      if (peek() != '^') {
        error("expected block label or '}'");
        return cleanupRegion();
      }
      ++Pos;
      std::string_view Label = parseSuffixId();
      Block *B = defineBlock(Scope, Label);
      if (!B)
        return cleanupRegion();
      // Optional argument list.
      if (tryConsume("(")) {
        if (!tryConsume(")")) {
          do {
            skipWs();
            if (peek() != '%') {
              error("expected block argument");
              return cleanupRegion();
            }
            ++Pos;
            std::string_view ArgName = parseSuffixId();
            if (failed(expect(":")))
              return cleanupRegion();
            Type ArgTy = parseType();
            if (!ArgTy)
              return cleanupRegion();
            defineValue(ArgName, B->addArgument(ArgTy));
          } while (tryConsume(","));
          if (failed(expect(")")))
            return cleanupRegion();
        }
      }
      if (failed(expect(":")))
        return cleanupRegion();
      if (failed(parseBlockBody(B)))
        return cleanupRegion();
    }

    popScope();
    RegionStack.pop_back();
    if (!Scope.Pending.empty()) {
      return error("use of undefined block label '^" +
                   std::string(Scope.Pending.begin()->first) + "'");
    }
    return success();
  }

  LogicalResult cleanupRegion() {
    popScope();
    RegionStack.pop_back();
    return failure();
  }

  LogicalResult parseBlockBody(Block *B) {
    while (true) {
      skipWs();
      if (peek() == '}' || peek() == '^' || atEnd())
        return success();
      if (!parseOperation(B))
        return failure();
    }
  }

  Context &Ctx;
  std::string_view Source;
  /// The buffer name, interned once; op locations only add line and column.
  Location FileLoc;
  size_t Pos = 0;
  /// locAt's memo: the line number and line start of byte LineCursor.
  size_t LineCursor = 0;
  unsigned CursorLine = 1;
  size_t CursorLineStart = 0;
  int64_t NumOps = 0;

  std::vector<ValueBinding> Bindings;
  std::vector<size_t> ScopeStarts;
  std::unordered_map<std::string_view, uint32_t> Visible;
  std::vector<RegionScope *> RegionStack;
};

} // namespace

OwningOpRef tdl::parseSourceString(Context &Ctx, std::string_view Source,
                                   std::string_view BufferName) {
  telemetry::ScopedSpan Span("ir:parse", "ir");
  Parser TheParser(Ctx, Source, BufferName);
  OwningOpRef Result(TheParser.parseTopLevelOp());
  static telemetry::Counter &ParsedOps = telemetry::counter("ir.parse.ops");
  ParsedOps.add(TheParser.getNumOps());
  return Result;
}

Type tdl::parseTypeString(Context &Ctx, std::string_view Source) {
  Parser TheParser(Ctx, Source, "type");
  return TheParser.parseTypeOnly();
}
