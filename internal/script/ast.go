package script

// Node is the interface implemented by every AST node.
type Node interface {
	nodePos() (line, col int)
}

type pos struct {
	Line int
	Col  int
}

func (p pos) nodePos() (int, int) { return p.Line, p.Col }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Program is the root node of a parsed script.
type Program struct {
	pos
	Body []Stmt
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// VarStmt declares one or more variables: var a = 1, b;
type VarStmt struct {
	pos
	Names  []string
	Values []Expr // nil entries mean "undefined"
}

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct {
	pos
	X Expr
}

// BlockStmt is a brace-delimited list of statements.
type BlockStmt struct {
	pos
	Body []Stmt
}

// IfStmt is if (Cond) Then else Else.
type IfStmt struct {
	pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	pos
	Cond Expr
	Body Stmt
}

// DoWhileStmt is do Body while (Cond);
type DoWhileStmt struct {
	pos
	Cond Expr
	Body Stmt
}

// ForStmt is for (Init; Cond; Post) Body. Any of Init/Cond/Post may be nil.
type ForStmt struct {
	pos
	Init Stmt // VarStmt or ExprStmt or nil
	Cond Expr
	Post Expr
	Body Stmt
}

// ForInStmt is for (var Name in Object) Body.
type ForInStmt struct {
	pos
	Name    string
	Declare bool
	Object  Expr
	Body    Stmt
}

// ReturnStmt is return X; where X may be nil.
type ReturnStmt struct {
	pos
	X Expr
}

// BreakStmt is break;
type BreakStmt struct{ pos }

// ContinueStmt is continue;
type ContinueStmt struct{ pos }

// ThrowStmt is throw X;
type ThrowStmt struct {
	pos
	X Expr
}

// TryStmt is try Block catch (Param) Catch finally Finally.
type TryStmt struct {
	pos
	Block   *BlockStmt
	Param   string
	Catch   *BlockStmt // may be nil
	Finally *BlockStmt // may be nil
}

// FunctionDecl is a named function declaration hoisted into its scope.
type FunctionDecl struct {
	pos
	Name string
	Fn   *FunctionLit
}

// SwitchStmt is switch (Disc) { case ...: ... default: ... }.
type SwitchStmt struct {
	pos
	Disc  Expr
	Cases []SwitchCase
}

// SwitchCase is a single case (or default when Test is nil) in a switch.
type SwitchCase struct {
	Test Expr // nil for default
	Body []Stmt
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ pos }

func (*VarStmt) stmtNode()      {}
func (*ExprStmt) stmtNode()     {}
func (*BlockStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()      {}
func (*ForInStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ThrowStmt) stmtNode()    {}
func (*TryStmt) stmtNode()      {}
func (*FunctionDecl) stmtNode() {}
func (*SwitchStmt) stmtNode()   {}
func (*EmptyStmt) stmtNode()    {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Ident is a variable reference.
type Ident struct {
	pos
	Name string
}

// NumberLit is a numeric literal.
type NumberLit struct {
	pos
	Value float64
	val   Value // Value as a script value, boxed once by the parser
}

// StringLit is a string literal.
type StringLit struct {
	pos
	Value string
	val   Value // Value as a script value, boxed once by the parser
}

// BoolLit is true or false.
type BoolLit struct {
	pos
	Value bool
}

// NullLit is the null literal.
type NullLit struct{ pos }

// UndefinedLit is the undefined literal.
type UndefinedLit struct{ pos }

// ThisLit is the this expression.
type ThisLit struct{ pos }

// ArrayLit is [a, b, c].
type ArrayLit struct {
	pos
	Elems []Expr
}

// ObjectLit is { key: value, ... }.
type ObjectLit struct {
	pos
	Keys   []string
	Values []Expr
}

// FunctionLit is function (params) { body }.
type FunctionLit struct {
	pos
	Name   string // optional, for named function expressions
	Params []string
	Body   *BlockStmt
	// slots is how many bindings a call's frame holds in its first
	// allocation: the parameters, arguments, this and the body's top-level
	// declarations.
	slots int
	// closes says the body creates a function, which may close over the
	// call's frame, and namesArguments that it names arguments. A call of a
	// function with neither runs in a frame its context keeps (frame).
	closes, namesArguments bool
}

// UnaryExpr is Op X (prefix) such as !x, -x, typeof x, delete x.
type UnaryExpr struct {
	pos
	Op string
	X  Expr
}

// UpdateExpr is ++x, x++, --x, x--.
type UpdateExpr struct {
	pos
	Op     string // "++" or "--"
	X      Expr
	Prefix bool
}

// BinaryExpr is X Op Y for arithmetic, comparison, and logical operators.
type BinaryExpr struct {
	pos
	Op string
	X  Expr
	Y  Expr
}

// AssignExpr is X Op Y where Op is =, +=, -=, *=, /=, %=.
type AssignExpr struct {
	pos
	Op string
	X  Expr // Ident, MemberExpr, or IndexExpr
	Y  Expr
}

// CondExpr is Cond ? Then : Else.
type CondExpr struct {
	pos
	Cond Expr
	Then Expr
	Else Expr
}

// CallExpr is Fn(Args...).
type CallExpr struct {
	pos
	Fn   Expr
	Args []Expr
}

// NewExpr is new Fn(Args...).
type NewExpr struct {
	pos
	Fn   Expr
	Args []Expr
}

// MemberExpr is X.Name.
type MemberExpr struct {
	pos
	X    Expr
	Name string
}

// IndexExpr is X[Index].
type IndexExpr struct {
	pos
	X     Expr
	Index Expr
}

// SequenceExpr is a comma expression a, b, c.
type SequenceExpr struct {
	pos
	Exprs []Expr
}

func (*Ident) exprNode()        {}
func (*NumberLit) exprNode()    {}
func (*StringLit) exprNode()    {}
func (*BoolLit) exprNode()      {}
func (*NullLit) exprNode()      {}
func (*UndefinedLit) exprNode() {}
func (*ThisLit) exprNode()      {}
func (*ArrayLit) exprNode()     {}
func (*ObjectLit) exprNode()    {}
func (*FunctionLit) exprNode()  {}
func (*UnaryExpr) exprNode()    {}
func (*UpdateExpr) exprNode()   {}
func (*BinaryExpr) exprNode()   {}
func (*AssignExpr) exprNode()   {}
func (*CondExpr) exprNode()     {}
func (*CallExpr) exprNode()     {}
func (*NewExpr) exprNode()      {}
func (*MemberExpr) exprNode()   {}
func (*IndexExpr) exprNode()    {}
func (*SequenceExpr) exprNode() {}
