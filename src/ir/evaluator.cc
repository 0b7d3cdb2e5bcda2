#include "ir/evaluator.h"

#include <cmath>
#include <limits>

namespace sia {

TruthValue And3(TruthValue a, TruthValue b) {
  if (a == TruthValue::kFalse || b == TruthValue::kFalse) {
    return TruthValue::kFalse;
  }
  if (a == TruthValue::kUnknown || b == TruthValue::kUnknown) {
    return TruthValue::kUnknown;
  }
  return TruthValue::kTrue;
}

TruthValue Or3(TruthValue a, TruthValue b) {
  if (a == TruthValue::kTrue || b == TruthValue::kTrue) {
    return TruthValue::kTrue;
  }
  if (a == TruthValue::kUnknown || b == TruthValue::kUnknown) {
    return TruthValue::kUnknown;
  }
  return TruthValue::kFalse;
}

TruthValue Not3(TruthValue a) {
  switch (a) {
    case TruthValue::kTrue:
      return TruthValue::kFalse;
    case TruthValue::kFalse:
      return TruthValue::kTrue;
    case TruthValue::kUnknown:
      return TruthValue::kUnknown;
  }
  return TruthValue::kUnknown;
}

namespace {

Result<Value> EvalArith(ArithOp op, const Value& l, const Value& r,
                        DataType result_type) {
  if (l.is_null() || r.is_null()) return Value::Null(result_type);
  const bool use_double = (l.type() == DataType::kDouble ||
                           r.type() == DataType::kDouble);
  if (use_double) {
    const double a = l.AsDouble();
    const double b = r.AsDouble();
    double out = 0;
    switch (op) {
      case ArithOp::kAdd:
        out = a + b;
        break;
      case ArithOp::kSub:
        out = a - b;
        break;
      case ArithOp::kMul:
        out = a * b;
        break;
      case ArithOp::kDiv:
        if (b == 0) return Value::Null(DataType::kDouble);
        out = a / b;
        break;
    }
    return Value::Double(out);
  }
  const int64_t a = l.AsInt();
  const int64_t b = r.AsInt();
  int64_t out = 0;
  switch (op) {
    case ArithOp::kAdd:
      out = a + b;
      break;
    case ArithOp::kSub:
      out = a - b;
      break;
    case ArithOp::kMul:
      out = a * b;
      break;
    case ArithOp::kDiv:
      // INT64_MIN / -1 is the one quotient int64 cannot hold.
      if (b == 0 || (b == -1 && a == std::numeric_limits<int64_t>::min())) {
        return Value::Null(result_type);
      }
      out = a / b;  // SQL truncates toward zero
      break;
  }
  // Re-tag DATE results so printing round-trips.
  if (result_type == DataType::kDate) return Value::Date(out);
  if (result_type == DataType::kTimestamp) return Value::Timestamp(out);
  return Value::Integer(out);
}

TruthValue EvalCompare(CompareOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return TruthValue::kUnknown;
  int cmp;
  if (l.type() == DataType::kDouble || r.type() == DataType::kDouble) {
    const double a = l.AsDouble();
    const double b = r.AsDouble();
    cmp = (a < b) ? -1 : (a > b ? 1 : 0);
  } else {
    const int64_t a = l.AsInt();
    const int64_t b = r.AsInt();
    cmp = (a < b) ? -1 : (a > b ? 1 : 0);
  }
  bool out = false;
  switch (op) {
    case CompareOp::kLt:
      out = cmp < 0;
      break;
    case CompareOp::kLe:
      out = cmp <= 0;
      break;
    case CompareOp::kGt:
      out = cmp > 0;
      break;
    case CompareOp::kGe:
      out = cmp >= 0;
      break;
    case CompareOp::kEq:
      out = cmp == 0;
      break;
    case CompareOp::kNe:
      out = cmp != 0;
      break;
  }
  return out ? TruthValue::kTrue : TruthValue::kFalse;
}

}  // namespace

Result<Value> EvalScalar(const Expr& expr, const Tuple& tuple) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      if (!expr.is_bound()) {
        return Status::Internal("unbound column '" + expr.name() +
                                "' in evaluation");
      }
      if (expr.index() >= tuple.size()) {
        return Status::Internal("column index out of range: " +
                                std::to_string(expr.index()));
      }
      return tuple.at(expr.index());
    }
    case ExprKind::kLiteral:
      return expr.literal();
    case ExprKind::kArith: {
      SIA_ASSIGN_OR_RETURN(Value l, EvalScalar(*expr.left(), tuple));
      SIA_ASSIGN_OR_RETURN(Value r, EvalScalar(*expr.right(), tuple));
      return EvalArith(expr.arith_op(), l, r, expr.type());
    }
    case ExprKind::kCompare:
    case ExprKind::kLogic:
    case ExprKind::kNot: {
      SIA_ASSIGN_OR_RETURN(TruthValue tv, EvalPredicate(expr, tuple));
      if (tv == TruthValue::kUnknown) return Value::Null(DataType::kBoolean);
      return Value::Boolean(tv == TruthValue::kTrue);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<TruthValue> EvalPredicate(const Expr& expr, const Tuple& tuple) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = expr.literal();
      if (v.is_null()) return TruthValue::kUnknown;
      if (v.type() != DataType::kBoolean) {
        return Status::TypeError("literal '" + v.ToString() +
                                 "' is not a predicate");
      }
      return v.AsBool() ? TruthValue::kTrue : TruthValue::kFalse;
    }
    case ExprKind::kCompare: {
      SIA_ASSIGN_OR_RETURN(Value l, EvalScalar(*expr.left(), tuple));
      SIA_ASSIGN_OR_RETURN(Value r, EvalScalar(*expr.right(), tuple));
      return EvalCompare(expr.compare_op(), l, r);
    }
    case ExprKind::kLogic: {
      SIA_ASSIGN_OR_RETURN(TruthValue l, EvalPredicate(*expr.left(), tuple));
      // Short-circuit where 3VL permits.
      if (expr.logic_op() == LogicOp::kAnd && l == TruthValue::kFalse) {
        return TruthValue::kFalse;
      }
      if (expr.logic_op() == LogicOp::kOr && l == TruthValue::kTrue) {
        return TruthValue::kTrue;
      }
      SIA_ASSIGN_OR_RETURN(TruthValue r, EvalPredicate(*expr.right(), tuple));
      return expr.logic_op() == LogicOp::kAnd ? And3(l, r) : Or3(l, r);
    }
    case ExprKind::kNot: {
      SIA_ASSIGN_OR_RETURN(TruthValue v,
                           EvalPredicate(*expr.operand(), tuple));
      return Not3(v);
    }
    case ExprKind::kColumnRef: {
      if (expr.type() != DataType::kBoolean) {
        return Status::TypeError("column '" + expr.name() +
                                 "' is not boolean");
      }
      SIA_ASSIGN_OR_RETURN(Value v, EvalScalar(expr, tuple));
      if (v.is_null()) return TruthValue::kUnknown;
      return v.AsBool() ? TruthValue::kTrue : TruthValue::kFalse;
    }
    case ExprKind::kArith:
      break;  // arithmetic is never boolean
  }
  return Status::TypeError("expression is not a predicate: " +
                           expr.ToString());
}

Result<bool> Satisfies(const Expr& expr, const Tuple& tuple) {
  SIA_ASSIGN_OR_RETURN(TruthValue tv, EvalPredicate(expr, tuple));
  return tv == TruthValue::kTrue;
}

}  // namespace sia
