package taskir

import "fmt"

// Expr is an integer expression over the job environment.
type Expr interface {
	// Eval computes the expression's value in env.
	Eval(env *Env) int64
	// String renders the expression for debugging.
	String() string
}

// Const is an integer literal.
type Const int64

// Var reads a variable from the environment.
type Var string

// Op enumerates binary operators.
type Op int

// Binary operators. Comparison operators yield 0 or 1.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // division by zero yields 0, like a guarded C helper
	OpMod // modulo by zero yields 0
	OpMin
	OpMax
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd // logical: non-zero operands
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpMin: "min", OpMax: "max",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=", OpEQ: "==", OpNE: "!=",
	OpAnd: "&&", OpOr: "||",
}

// Bin applies Op to two sub-expressions.
type Bin struct {
	Op   Op
	L, R Expr
}

// Not is logical negation: 1 when the operand is zero, else 0.
type Not struct {
	X Expr
}

func (c Const) Eval(*Env) int64 { return int64(c) }
func (c Const) String() string  { return fmt.Sprintf("%d", int64(c)) }

func (v Var) Eval(env *Env) int64 { return env.Get(string(v)) }
func (v Var) String() string      { return string(v) }

func (b *Bin) Eval(env *Env) int64 {
	return b.Op.apply(b.L.Eval(env), b.R.Eval(env))
}

// apply is the one definition of binary-operator arithmetic. Bin.Eval
// and (through Bin.Eval) the analysis layer's constant folding compute
// through it, as do the compiled closures for operators they do not
// compute inline; TestCompiledArithmeticMatchesApply holds the inline
// ones equal to it.
func (op Op) apply(l, r int64) int64 {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			return 0
		}
		return l / r
	case OpMod:
		if r == 0 {
			return 0
		}
		return l % r
	case OpMin:
		if l < r {
			return l
		}
		return r
	case OpMax:
		if l > r {
			return l
		}
		return r
	case OpLT:
		return b2i(l < r)
	case OpLE:
		return b2i(l <= r)
	case OpGT:
		return b2i(l > r)
	case OpGE:
		return b2i(l >= r)
	case OpEQ:
		return b2i(l == r)
	case OpNE:
		return b2i(l != r)
	case OpAnd:
		return b2i(l != 0 && r != 0)
	case OpOr:
		return b2i(l != 0 || r != 0)
	}
	panic(fmt.Sprintf("taskir: unknown op %d", op))
}

func (b *Bin) String() string {
	if b.Op == OpMin || b.Op == OpMax {
		return fmt.Sprintf("%s(%s, %s)", opNames[b.Op], b.L, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", b.L, opNames[b.Op], b.R)
}

func (n *Not) Eval(env *Env) int64 { return b2i(n.X.Eval(env) == 0) }
func (n *Not) String() string      { return fmt.Sprintf("!(%s)", n.X) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Convenience constructors keep workload definitions readable.

// Add returns l + r.
func Add(l, r Expr) Expr { return &Bin{OpAdd, l, r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return &Bin{OpSub, l, r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return &Bin{OpMul, l, r} }

// Div returns l / r (0 when r is 0).
func Div(l, r Expr) Expr { return &Bin{OpDiv, l, r} }

// Mod returns l % r (0 when r is 0).
func Mod(l, r Expr) Expr { return &Bin{OpMod, l, r} }

// Min returns the smaller of l and r.
func Min(l, r Expr) Expr { return &Bin{OpMin, l, r} }

// Max returns the larger of l and r.
func Max(l, r Expr) Expr { return &Bin{OpMax, l, r} }

// LT returns 1 when l < r.
func LT(l, r Expr) Expr { return &Bin{OpLT, l, r} }

// LE returns 1 when l <= r.
func LE(l, r Expr) Expr { return &Bin{OpLE, l, r} }

// GT returns 1 when l > r.
func GT(l, r Expr) Expr { return &Bin{OpGT, l, r} }

// GE returns 1 when l >= r.
func GE(l, r Expr) Expr { return &Bin{OpGE, l, r} }

// EQ returns 1 when l == r.
func EQ(l, r Expr) Expr { return &Bin{OpEQ, l, r} }

// NE returns 1 when l != r.
func NE(l, r Expr) Expr { return &Bin{OpNE, l, r} }

// And returns 1 when both operands are non-zero.
func And(l, r Expr) Expr { return &Bin{OpAnd, l, r} }

// Or returns 1 when either operand is non-zero.
func Or(l, r Expr) Expr { return &Bin{OpOr, l, r} }

// exprVars appends the variables read by e to dst and returns it.
func exprVars(e Expr, dst []string) []string {
	switch x := e.(type) {
	case Const:
	case Var:
		dst = append(dst, string(x))
	case *Bin:
		dst = exprVars(x.L, dst)
		dst = exprVars(x.R, dst)
	case *Not:
		dst = exprVars(x.X, dst)
	default:
		panic(fmt.Sprintf("taskir: unknown expression type %T", e))
	}
	return dst
}

// ExprVars returns the variables read by e in first-occurrence order.
func ExprVars(e Expr) []string { return exprVars(e, nil) }
