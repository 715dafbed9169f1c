package exec

import (
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/hex"
	"fmt"
	"math"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ltqp/internal/algebra"
	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
)

// errTypeError is the base of SPARQL expression type errors; filters treat
// them as "drop this solution", BIND leaves the variable unbound.
func typeErrf(format string, args ...interface{}) error {
	return fmt.Errorf("type error: "+format, args...)
}

// evalExpr evaluates an expression under a binding.
func evalExpr(env *Env, e sparql.Expression, b rdf.Binding) (rdf.Term, error) {
	switch x := e.(type) {
	case sparql.ExprTerm:
		return x.Term, nil
	case sparql.ExprVar:
		if t, ok := b.Get(x.Name); ok {
			return t, nil
		}
		return rdf.Term{}, typeErrf("unbound variable ?%s", x.Name)
	case sparql.ExprBinary:
		return evalBinary(env, x, b)
	case sparql.ExprUnary:
		return evalUnary(env, x, b)
	case sparql.ExprIn:
		return evalIn(env, x, b)
	case sparql.ExprExists:
		return evalExists(env, x, b)
	case sparql.ExprCall:
		return evalCall(env, x, b)
	default:
		return rdf.Term{}, typeErrf("unsupported expression %T", e)
	}
}

func evalBinary(env *Env, x sparql.ExprBinary, b rdf.Binding) (rdf.Term, error) {
	switch x.Op {
	case "||", "&&":
		return evalLogical(env, x, b)
	}
	l, lerr := evalExpr(env, x.L, b)
	if lerr != nil {
		return rdf.Term{}, lerr
	}
	r, rerr := evalExpr(env, x.R, b)
	if rerr != nil {
		return rdf.Term{}, rerr
	}
	switch x.Op {
	case "=", "!=":
		eq, err := termsEqual(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		if x.Op == "!=" {
			eq = !eq
		}
		return rdf.Boolean(eq), nil
	case "<", ">", "<=", ">=":
		cmp, err := compareValues(l, r)
		if err != nil {
			return rdf.Term{}, err
		}
		var res bool
		switch x.Op {
		case "<":
			res = cmp < 0
		case ">":
			res = cmp > 0
		case "<=":
			res = cmp <= 0
		case ">=":
			res = cmp >= 0
		}
		return rdf.Boolean(res), nil
	case "+", "-", "*", "/":
		return arith(x.Op, l, r)
	}
	return rdf.Term{}, typeErrf("unknown operator %q", x.Op)
}

// evalLogical implements SPARQL's three-valued || and && (errors behave as
// "unknown": true||error = true, false&&error = false, otherwise error).
func evalLogical(env *Env, x sparql.ExprBinary, b rdf.Binding) (rdf.Term, error) {
	lv, lerr := evalExpr(env, x.L, b)
	var lb bool
	if lerr == nil {
		var err error
		lb, err = lv.EffectiveBooleanValue()
		if err != nil {
			lerr = err
		}
	}
	rv, rerr := evalExpr(env, x.R, b)
	var rb bool
	if rerr == nil {
		var err error
		rb, err = rv.EffectiveBooleanValue()
		if err != nil {
			rerr = err
		}
	}
	if x.Op == "||" {
		switch {
		case lerr == nil && lb, rerr == nil && rb:
			return rdf.Boolean(true), nil
		case lerr == nil && rerr == nil:
			return rdf.Boolean(false), nil
		default:
			return rdf.Term{}, typeErrf("error in ||")
		}
	}
	switch {
	case lerr == nil && !lb, rerr == nil && !rb:
		return rdf.Boolean(false), nil
	case lerr == nil && rerr == nil:
		return rdf.Boolean(true), nil
	default:
		return rdf.Term{}, typeErrf("error in &&")
	}
}

func evalUnary(env *Env, x sparql.ExprUnary, b rdf.Binding) (rdf.Term, error) {
	v, err := evalExpr(env, x.X, b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "!":
		ebv, err := v.EffectiveBooleanValue()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(!ebv), nil
	case "-":
		return arith("-", rdf.Integer(0), v)
	case "+":
		if !v.IsNumeric() {
			return rdf.Term{}, typeErrf("unary + on non-numeric %s", v)
		}
		return v, nil
	}
	return rdf.Term{}, typeErrf("unknown unary %q", x.Op)
}

func evalIn(env *Env, x sparql.ExprIn, b rdf.Binding) (rdf.Term, error) {
	v, err := evalExpr(env, x.X, b)
	if err != nil {
		return rdf.Term{}, err
	}
	found := false
	var firstErr error
	for _, item := range x.List {
		iv, err := evalExpr(env, item, b)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if eq, err := termsEqual(v, iv); err == nil && eq {
			found = true
			break
		}
	}
	if !found && firstErr != nil {
		return rdf.Term{}, firstErr
	}
	if x.Not {
		found = !found
	}
	return rdf.Boolean(found), nil
}

// evalExists evaluates EXISTS { pattern } under b and the rows of the
// EXISTS around it: it substitutes them into the pattern's operator and
// runs that through the pipeline, reading until its first row. It waits
// for the store to close first, so no later triple can change an answer:
// this is the one gate for every expression EXISTS can appear in. The run
// publishes no stage events or spans and carries no provenance; it charges
// the query's ledger and releases the charge before it returns. The oracle
// evaluates the pattern with Reference instead.
func evalExists(env *Env, x sparql.ExprExists, b rdf.Binding) (rdf.Term, error) {
	op, err := env.existsOp(x)
	if err != nil {
		return rdf.Term{}, typeErrf("EXISTS: %v", err)
	}
	if env.outer != nil {
		if m, ok := b.Merge(env.outer); ok {
			b = m
		}
	}
	op = substituteOp(op, b)
	inner := *env
	inner.outer = b
	var found bool
	if env.oracle {
		found = len(Reference(op, &inner)) > 0
	} else {
		if err := env.Store.WaitClosed(env.ctx); err != nil {
			return rdf.Term{}, err
		}
		inner.Events, inner.Prov = nil, nil
		for bt := range EvalBatch(env.ctx, op, &inner) {
			found = found || bt.Len() > 0
			putBatch(bt)
		}
		if err := env.ctx.Err(); err != nil {
			return rdf.Term{}, err
		}
	}
	if x.Not {
		found = !found
	}
	return rdf.Boolean(found), nil
}

// existsOp returns the operator of an EXISTS pattern, limited to one row.
// It translates each pattern once per query, keyed by the identity of its
// parsed elements or sub-select; a pattern built some other way is
// translated at every call.
func (e *Env) existsOp(x sparql.ExprExists) (algebra.Operator, error) {
	var key any
	switch p := x.Pattern.(type) {
	case sparql.GroupPattern:
		key = (*sparql.GraphPattern)(nil) // every empty group is the same
		if len(p.Elements) > 0 {
			key = &p.Elements[0]
		}
	case sparql.SubSelect:
		key = p.Query
	}
	e.q.mu.Lock()
	defer e.q.mu.Unlock()
	if op, ok := e.q.exists[key]; ok {
		return op, nil
	}
	g, ok := x.Pattern.(sparql.GroupPattern)
	if !ok {
		g = sparql.GroupPattern{Elements: []sparql.GraphPattern{x.Pattern}}
	}
	op, err := algebra.Translate(&sparql.Query{Form: sparql.FormSelect, Where: &g, Limit: 1})
	if err == nil && key != nil {
		if e.q.exists == nil {
			e.q.exists = map[any]algebra.Operator{}
		}
		e.q.exists[key] = op
	}
	return op, err
}

// substituteOp replaces the variables b binds by their values in patterns
// and expressions. Binding targets (an Extend's variable, group keys) stay
// as they are; a nested EXISTS substitutes b when it runs (Env.outer).
func substituteOp(op algebra.Operator, b rdf.Binding) algebra.Operator {
	sub := func(t rdf.Term) rdf.Term {
		if v, ok := b.Get(t.Value); ok && t.IsVar() {
			return v
		}
		return t
	}
	switch x := op.(type) {
	case algebra.Pattern:
		return algebra.Pattern{Triple: x.Triple.Bind(b), Graph: sub(x.Graph)}
	case algebra.PathPattern:
		return algebra.PathPattern{S: sub(x.S), O: sub(x.O), Path: x.Path}
	case algebra.Join:
		return algebra.Join{Left: substituteOp(x.Left, b), Right: substituteOp(x.Right, b)}
	case algebra.LeftJoin:
		return algebra.LeftJoin{Left: substituteOp(x.Left, b), Right: substituteOp(x.Right, b), Filters: substituteExprs(x.Filters, b)}
	case algebra.Union:
		return algebra.Union{Left: substituteOp(x.Left, b), Right: substituteOp(x.Right, b)}
	case algebra.Minus:
		return algebra.Minus{Left: substituteOp(x.Left, b), Right: substituteOp(x.Right, b)}
	case algebra.Filter:
		return algebra.Filter{Input: substituteOp(x.Input, b), Expr: substituteExpr(x.Expr, b)}
	case algebra.Extend:
		return algebra.Extend{Input: substituteOp(x.Input, b), Var: x.Var, Expr: substituteExpr(x.Expr, b)}
	case algebra.Slice:
		return algebra.Slice{Input: substituteOp(x.Input, b), Offset: x.Offset, Limit: x.Limit}
	case algebra.Project:
		return algebra.Project{Input: substituteOp(x.Input, b), Names: x.Names}
	case algebra.Distinct:
		return algebra.Distinct{Input: substituteOp(x.Input, b)}
	case algebra.Reduced:
		return algebra.Reduced{Input: substituteOp(x.Input, b)}
	case algebra.OrderBy:
		conds := slices.Clone(x.Conds)
		for i := range conds {
			conds[i].Expr = substituteExpr(conds[i].Expr, b)
		}
		return algebra.OrderBy{Input: substituteOp(x.Input, b), Conds: conds}
	case algebra.Group:
		return algebra.Group{Input: substituteOp(x.Input, b), By: x.By, Items: x.Items}
	default:
		return op
	}
}

// substituteExpr replaces the variables b binds by their values in e;
// BOUND of such a variable becomes true.
func substituteExpr(e sparql.Expression, b rdf.Binding) sparql.Expression {
	switch x := e.(type) {
	case sparql.ExprVar:
		if t, ok := b.Get(x.Name); ok {
			return sparql.ExprTerm{Term: t}
		}
	case sparql.ExprBinary:
		x.L, x.R = substituteExpr(x.L, b), substituteExpr(x.R, b)
		return x
	case sparql.ExprUnary:
		x.X = substituteExpr(x.X, b)
		return x
	case sparql.ExprIn:
		x.X, x.List = substituteExpr(x.X, b), substituteExprs(x.List, b)
		return x
	case sparql.ExprCall:
		if x.Func == "BOUND" && len(x.Args) == 1 {
			if v, ok := x.Args[0].(sparql.ExprVar); ok && b.Has(v.Name) {
				return sparql.ExprTerm{Term: rdf.Boolean(true)}
			}
		}
		x.Args = substituteExprs(x.Args, b)
		return x
	}
	return e
}

func substituteExprs(es []sparql.Expression, b rdf.Binding) []sparql.Expression {
	out := make([]sparql.Expression, len(es))
	for i, e := range es {
		out[i] = substituteExpr(e, b)
	}
	return out
}

// builtin regexp cache; patterns in queries are static.
var (
	regexCacheMu sync.Mutex
	regexCache   = map[string]*regexp.Regexp{}
)

func compiledRegex(pattern, flags string) (*regexp.Regexp, error) {
	key := flags + "\x00" + pattern
	regexCacheMu.Lock()
	re, ok := regexCache[key]
	regexCacheMu.Unlock()
	if ok {
		return re, nil
	}
	goPattern := pattern
	if strings.Contains(flags, "i") {
		goPattern = "(?i)" + goPattern
	}
	if strings.Contains(flags, "s") {
		goPattern = "(?s)" + goPattern
	}
	if strings.Contains(flags, "m") {
		goPattern = "(?m)" + goPattern
	}
	re, err := regexp.Compile(goPattern)
	if err != nil {
		return nil, typeErrf("invalid REGEX pattern: %v", err)
	}
	regexCacheMu.Lock()
	regexCache[key] = re
	regexCacheMu.Unlock()
	return re, nil
}

// evalCall dispatches builtin and cast function calls.
func evalCall(env *Env, x sparql.ExprCall, b rdf.Binding) (rdf.Term, error) {
	// Lazy-argument builtins first.
	switch x.Func {
	case "BOUND":
		if len(x.Args) != 1 {
			return rdf.Term{}, typeErrf("BOUND takes 1 argument")
		}
		v, ok := x.Args[0].(sparql.ExprVar)
		if !ok {
			return rdf.Term{}, typeErrf("BOUND requires a variable")
		}
		return rdf.Boolean(b.Has(v.Name)), nil
	case "COALESCE":
		for _, a := range x.Args {
			if v, err := evalExpr(env, a, b); err == nil {
				return v, nil
			}
		}
		return rdf.Term{}, typeErrf("COALESCE: all arguments errored")
	case "IF":
		if len(x.Args) != 3 {
			return rdf.Term{}, typeErrf("IF takes 3 arguments")
		}
		c, err := evalExpr(env, x.Args[0], b)
		if err != nil {
			return rdf.Term{}, err
		}
		cv, err := c.EffectiveBooleanValue()
		if err != nil {
			return rdf.Term{}, err
		}
		if cv {
			return evalExpr(env, x.Args[1], b)
		}
		return evalExpr(env, x.Args[2], b)
	case "NOW":
		return env.Now(), nil
	case "RAND":
		return rdf.Double(env.nextRand()), nil
	case "BNODE":
		return env.freshBNode(), nil
	case "UUID":
		return rdf.NewIRI("urn:uuid:" + pseudoUUID(env)), nil
	case "STRUUID":
		return rdf.NewLiteral(pseudoUUID(env)), nil
	}

	// Eager builtins: evaluate all arguments.
	args := make([]rdf.Term, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(env, a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	return evalEagerCall(env, x.Func, args)
}

func pseudoUUID(env *Env) string {
	v := uint64(env.nextRand() * float64(1<<63))
	w := uint64(env.nextRand() * float64(1<<63))
	return fmt.Sprintf("%08x-%04x-4%03x-8%03x-%012x",
		uint32(v), uint16(v>>32), uint16(v>>48)&0xfff, uint16(w)&0xfff, w>>16&0xffffffffffff)
}

// evalEagerCall implements builtins whose arguments are all evaluated.
func evalEagerCall(env *Env, fn string, args []rdf.Term) (rdf.Term, error) {
	need := func(n int) error {
		if len(args) != n {
			return typeErrf("%s takes %d argument(s), got %d", fn, n, len(args))
		}
		return nil
	}
	str := func(t rdf.Term) (string, error) {
		if t.Kind == rdf.TermLiteral {
			return t.Value, nil
		}
		if t.Kind == rdf.TermIRI {
			return t.Value, nil
		}
		return "", typeErrf("%s requires a string, got %s", fn, t)
	}
	strLit := func(t rdf.Term) (rdf.Term, string, error) {
		if t.Kind != rdf.TermLiteral || (t.Datatype != "" && t.Datatype != rdf.XSDString) {
			return rdf.Term{}, "", typeErrf("%s requires a string literal, got %s", fn, t)
		}
		return t, t.Value, nil
	}
	// rebuild re-wraps a derived string with the language of the source.
	rebuild := func(src rdf.Term, s string) rdf.Term {
		if src.Language != "" {
			return rdf.NewLangLiteral(s, src.Language)
		}
		return rdf.NewLiteral(s)
	}

	switch fn {
	case "STR":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		switch args[0].Kind {
		case rdf.TermIRI, rdf.TermLiteral:
			return rdf.NewLiteral(args[0].Value), nil
		}
		return rdf.Term{}, typeErrf("STR of %s", args[0])
	case "LANG":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		if args[0].Kind != rdf.TermLiteral {
			return rdf.Term{}, typeErrf("LANG of non-literal")
		}
		return rdf.NewLiteral(args[0].Language), nil
	case "LANGMATCHES":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		tag := strings.ToLower(args[0].Value)
		rng := strings.ToLower(args[1].Value)
		if rng == "*" {
			return rdf.Boolean(tag != ""), nil
		}
		return rdf.Boolean(tag == rng || strings.HasPrefix(tag, rng+"-")), nil
	case "DATATYPE":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		if args[0].Kind != rdf.TermLiteral {
			return rdf.Term{}, typeErrf("DATATYPE of non-literal")
		}
		return rdf.NewIRI(args[0].DatatypeIRI()), nil
	case "IRI", "URI":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		s, err := str(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(s), nil
	case "STRLEN":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		_, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.Integer(int64(len([]rune(s)))), nil
	case "UCASE", "LCASE":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		src, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		if fn == "UCASE" {
			return rebuild(src, strings.ToUpper(s)), nil
		}
		return rebuild(src, strings.ToLower(s)), nil
	case "CONCAT":
		var sb strings.Builder
		lang := ""
		first := true
		for _, a := range args {
			src, s, err := strLit(a)
			if err != nil {
				return rdf.Term{}, err
			}
			if first {
				lang = src.Language
				first = false
			} else if lang != src.Language {
				lang = ""
			}
			sb.WriteString(s)
		}
		if lang != "" {
			return rdf.NewLangLiteral(sb.String(), lang), nil
		}
		return rdf.NewLiteral(sb.String()), nil
	case "CONTAINS", "STRSTARTS", "STRENDS", "STRBEFORE", "STRAFTER":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		src, s1, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		_, s2, err := strLit(args[1])
		if err != nil {
			return rdf.Term{}, err
		}
		switch fn {
		case "CONTAINS":
			return rdf.Boolean(strings.Contains(s1, s2)), nil
		case "STRSTARTS":
			return rdf.Boolean(strings.HasPrefix(s1, s2)), nil
		case "STRENDS":
			return rdf.Boolean(strings.HasSuffix(s1, s2)), nil
		case "STRBEFORE":
			if i := strings.Index(s1, s2); i >= 0 {
				return rebuild(src, s1[:i]), nil
			}
			return rdf.NewLiteral(""), nil
		default: // STRAFTER
			if i := strings.Index(s1, s2); i >= 0 {
				return rebuild(src, s1[i+len(s2):]), nil
			}
			return rdf.NewLiteral(""), nil
		}
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return rdf.Term{}, typeErrf("SUBSTR takes 2 or 3 arguments")
		}
		src, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		start, err := args[1].Int()
		if err != nil {
			return rdf.Term{}, err
		}
		runes := []rune(s)
		// SPARQL positions are 1-based.
		from := int(start) - 1
		if from < 0 {
			from = 0
		}
		if from > len(runes) {
			from = len(runes)
		}
		to := len(runes)
		if len(args) == 3 {
			n, err := args[2].Int()
			if err != nil {
				return rdf.Term{}, err
			}
			to = from + int(n)
			if to > len(runes) {
				to = len(runes)
			}
			if to < from {
				to = from
			}
		}
		return rebuild(src, string(runes[from:to])), nil
	case "REPLACE":
		if len(args) != 3 && len(args) != 4 {
			return rdf.Term{}, typeErrf("REPLACE takes 3 or 4 arguments")
		}
		src, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		flags := ""
		if len(args) == 4 {
			flags = args[3].Value
		}
		re, err := compiledRegex(args[1].Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		repl := strings.ReplaceAll(args[2].Value, "$", "$$")
		repl = strings.ReplaceAll(repl, "$$0", "${0}")
		// Support $1..$9 backreferences per XPath syntax.
		for i := 1; i <= 9; i++ {
			repl = strings.ReplaceAll(repl, fmt.Sprintf("$$%d", i), fmt.Sprintf("${%d}", i))
		}
		return rebuild(src, re.ReplaceAllString(s, repl)), nil
	case "REGEX":
		if len(args) != 2 && len(args) != 3 {
			return rdf.Term{}, typeErrf("REGEX takes 2 or 3 arguments")
		}
		_, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		flags := ""
		if len(args) == 3 {
			flags = args[2].Value
		}
		re, err := compiledRegex(args[1].Value, flags)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(re.MatchString(s)), nil
	case "ENCODE_FOR_URI":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		_, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLiteral(url.PathEscape(s)), nil
	case "ABS", "CEIL", "FLOOR", "ROUND":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		if !args[0].IsNumeric() {
			return rdf.Term{}, typeErrf("%s of non-numeric", fn)
		}
		if args[0].IsIntegral() && fn != "ABS" {
			return args[0], nil
		}
		f, err := args[0].Float()
		if err != nil {
			return rdf.Term{}, err
		}
		switch fn {
		case "ABS":
			f = math.Abs(f)
			if args[0].IsIntegral() {
				return rdf.NewTypedLiteral(strconv.FormatInt(int64(f), 10), args[0].Datatype), nil
			}
		case "CEIL":
			f = math.Ceil(f)
		case "FLOOR":
			f = math.Floor(f)
		case "ROUND":
			f = math.Floor(f + 0.5)
		}
		return rdf.NewTypedLiteral(formatNumeric(f, args[0].Datatype), args[0].Datatype), nil
	case "YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		tv, err := args[0].Time()
		if err != nil {
			return rdf.Term{}, typeErrf("%s of non-dateTime: %v", fn, err)
		}
		switch fn {
		case "YEAR":
			return rdf.Integer(int64(tv.Year())), nil
		case "MONTH":
			return rdf.Integer(int64(tv.Month())), nil
		case "DAY":
			return rdf.Integer(int64(tv.Day())), nil
		case "HOURS":
			return rdf.Integer(int64(tv.Hour())), nil
		case "MINUTES":
			return rdf.Integer(int64(tv.Minute())), nil
		default:
			return rdf.Integer(int64(tv.Second())), nil
		}
	case "TZ":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		tv, err := args[0].Time()
		if err != nil {
			return rdf.Term{}, err
		}
		_, off := tv.Zone()
		if off == 0 {
			return rdf.NewLiteral("Z"), nil
		}
		sign := "+"
		if off < 0 {
			sign = "-"
			off = -off
		}
		return rdf.NewLiteral(fmt.Sprintf("%s%02d:%02d", sign, off/3600, off%3600/60)), nil
	case "MD5", "SHA1", "SHA256", "SHA384", "SHA512":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		_, s, err := strLit(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		var sum []byte
		switch fn {
		case "MD5":
			h := md5.Sum([]byte(s))
			sum = h[:]
		case "SHA1":
			h := sha1.Sum([]byte(s))
			sum = h[:]
		case "SHA256":
			h := sha256.Sum256([]byte(s))
			sum = h[:]
		case "SHA384":
			h := sha512.Sum384([]byte(s))
			sum = h[:]
		default:
			h := sha512.Sum512([]byte(s))
			sum = h[:]
		}
		return rdf.NewLiteral(hex.EncodeToString(sum)), nil
	case "SAMETERM":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(args[0] == args[1]), nil
	case "ISIRI", "ISURI":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(args[0].IsIRI()), nil
	case "ISBLANK":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(args[0].IsBlank()), nil
	case "ISLITERAL":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(args[0].IsLiteral()), nil
	case "ISNUMERIC":
		if err := need(1); err != nil {
			return rdf.Term{}, err
		}
		return rdf.Boolean(args[0].IsNumeric()), nil
	case "STRLANG":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewLangLiteral(args[0].Value, args[1].Value), nil
	case "STRDT":
		if err := need(2); err != nil {
			return rdf.Term{}, err
		}
		if !args[1].IsIRI() {
			return rdf.Term{}, typeErrf("STRDT datatype must be an IRI")
		}
		return rdf.NewTypedLiteral(args[0].Value, args[1].Value), nil
	}

	// XSD constructor casts, called by IRI.
	if strings.HasPrefix(fn, rdf.NSXSD) {
		return evalCast(fn, args)
	}
	return rdf.Term{}, typeErrf("unknown function %s", fn)
}

// formatNumeric renders a float in a form valid for the datatype.
func formatNumeric(f float64, datatype string) string {
	switch datatype {
	case rdf.XSDInteger, rdf.XSDLong, rdf.XSDInt, rdf.XSDShort, rdf.XSDByte, rdf.XSDNonNegativeInteger:
		return strconv.FormatInt(int64(f), 10)
	default:
		s := strconv.FormatFloat(f, 'g', -1, 64)
		return s
	}
}

// evalCast implements XSD constructor functions (xsd:integer(?x) etc.).
func evalCast(datatype string, args []rdf.Term) (rdf.Term, error) {
	if len(args) != 1 {
		return rdf.Term{}, typeErrf("cast takes 1 argument")
	}
	v := args[0]
	lex := v.Value
	if v.Kind == rdf.TermIRI && datatype != rdf.XSDString {
		return rdf.Term{}, typeErrf("cannot cast IRI to %s", datatype)
	}
	switch datatype {
	case rdf.XSDString:
		return rdf.NewLiteral(lex), nil
	case rdf.XSDBoolean:
		if v.IsNumeric() {
			f, err := v.Float()
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.Boolean(f != 0), nil
		}
		bv, err := v.Bool()
		if err != nil {
			return rdf.Term{}, typeErrf("cannot cast %q to boolean", lex)
		}
		return rdf.Boolean(bv), nil
	case rdf.XSDInteger, rdf.XSDLong, rdf.XSDInt, rdf.XSDShort, rdf.XSDByte, rdf.XSDNonNegativeInteger:
		f, err := strconv.ParseFloat(strings.TrimSpace(lex), 64)
		if err != nil {
			if bv, berr := v.Bool(); berr == nil && v.Datatype == rdf.XSDBoolean {
				if bv {
					return rdf.NewTypedLiteral("1", datatype), nil
				}
				return rdf.NewTypedLiteral("0", datatype), nil
			}
			return rdf.Term{}, typeErrf("cannot cast %q to integer", lex)
		}
		return rdf.NewTypedLiteral(strconv.FormatInt(int64(f), 10), datatype), nil
	case rdf.XSDDecimal, rdf.XSDFloat, rdf.XSDDouble:
		f, err := strconv.ParseFloat(strings.TrimSpace(lex), 64)
		if err != nil {
			return rdf.Term{}, typeErrf("cannot cast %q to %s", lex, datatype)
		}
		return rdf.NewTypedLiteral(strconv.FormatFloat(f, 'g', -1, 64), datatype), nil
	case rdf.XSDDateTime, rdf.XSDDate:
		if _, err := rdf.NewTypedLiteral(lex, rdf.XSDDateTime).Time(); err != nil {
			return rdf.Term{}, typeErrf("cannot cast %q to dateTime", lex)
		}
		return rdf.NewTypedLiteral(lex, datatype), nil
	}
	return rdf.Term{}, typeErrf("unsupported cast to %s", datatype)
}

// arith implements numeric arithmetic with type promotion.
func arith(op string, l, r rdf.Term) (rdf.Term, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return rdf.Term{}, typeErrf("arithmetic on non-numeric operands %s %s %s", l, op, r)
	}
	// Integer arithmetic stays integral except division.
	if l.IsIntegral() && r.IsIntegral() && op != "/" {
		a, err := l.Int()
		if err != nil {
			return rdf.Term{}, err
		}
		b, err := r.Int()
		if err != nil {
			return rdf.Term{}, err
		}
		var v int64
		switch op {
		case "+":
			v = a + b
		case "-":
			v = a - b
		case "*":
			v = a * b
		}
		return rdf.Integer(v), nil
	}
	a, err := l.Float()
	if err != nil {
		return rdf.Term{}, err
	}
	b, err := r.Float()
	if err != nil {
		return rdf.Term{}, err
	}
	var v float64
	switch op {
	case "+":
		v = a + b
	case "-":
		v = a - b
	case "*":
		v = a * b
	case "/":
		if b == 0 {
			return rdf.Term{}, typeErrf("division by zero")
		}
		v = a / b
	}
	dt := rdf.XSDDecimal
	if l.Datatype == rdf.XSDDouble || r.Datatype == rdf.XSDDouble ||
		l.Datatype == rdf.XSDFloat || r.Datatype == rdf.XSDFloat {
		dt = rdf.XSDDouble
	}
	return rdf.NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), dt), nil
}
