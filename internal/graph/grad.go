package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Gradients builds the reverse-mode gradient subgraph of a scalar loss port
// with respect to the named Variable nodes, returning one gradient port per
// requested variable name. This is the symbolic-graph autodiff the paper
// relies on ("operations for automatic differentiation ... are also
// automatically inserted", §3.1); it only handles static graphs — graphs
// containing dynamic control-flow ops are differentiated at run time by the
// executor's trace tape instead (see DESIGN.md §5).
func Gradients(g *Graph, loss Port, varNames []string) (map[string]Port, error) {
	// Reverse topological walk: nodes were appended in construction order,
	// which is a valid topological order for our builders.
	grads := make(map[Port][]Port) // accumulated gradient contributions
	key := func(p Port) Port { return p }
	addGrad := func(p Port, gp Port) {
		grads[key(p)] = append(grads[key(p)], gp)
	}
	addGrad(loss, g.Const(tensor.Scalar(1)).P())

	// sum combines accumulated contributions into one port.
	sum := func(ps []Port) Port {
		acc := ps[0]
		for _, p := range ps[1:] {
			acc = g.Add("Add", nil, acc, p).P()
		}
		return acc
	}

	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		// Gather this node's output gradient (port 0 only; multi-output ops
		// are control-flow and unsupported here).
		contribs, ok := grads[n.P()]
		if !ok || len(contribs) == 0 {
			continue
		}
		gout := sum(contribs)
		grads[n.P()] = []Port{gout}
		if err := backprop(g, n, gout, addGrad); err != nil {
			return nil, err
		}
	}

	// One variable may be read through several Variable nodes — loop
	// unrolling emits one per iteration for a variable() call inside the
	// body — so its gradient is the sum over every node carrying its name.
	out := make(map[string]Port, len(varNames))
	for _, name := range varNames {
		var first *Node
		var ps []Port
		for _, n := range g.Nodes {
			if n.Op == "Variable" && n.StrAttr("name") == name {
				if first == nil {
					first = n
				}
				ps = append(ps, grads[n.P()]...)
			}
		}
		if first == nil {
			return nil, fmt.Errorf("graph: no Variable node named %q", name)
		}
		if len(ps) > 0 {
			out[name] = sum(ps)
		} else {
			// Variable does not influence the loss: zero gradient of the
			// variable's shape, computed at run time via FillLike with scale 0.
			z := g.Add("FillLike", map[string]Val{"scale": 0.0}, first.P(), g.Const(tensor.Scalar(0)).P())
			out[name] = z.P()
		}
	}
	return out, nil
}

// backprop emits gradient nodes for a single forward node. gout is the
// gradient flowing into n's output.
func backprop(g *Graph, n *Node, gout Port, addGrad func(p, gp Port)) error {
	in := n.Inputs
	switch n.Op {
	case "Const", "Placeholder", "Variable", "OneHot", "Argmax", "Len", "Cmp",
		"Not", "Range", "Zeros", "Ones", "PyGetAttr", "PyGetSubscr":
		// Leaves / non-differentiable. Heap reads (PyGetAttr/PyGetSubscr) are
		// gradient stops, matching how TF treats values read from external
		// Python state: the carried RNN state receives no gradient across
		// iteration boundaries.
		return nil
	case "Identity":
		addGrad(in[0], gout)
	case "Add":
		addGrad(in[0], g.Add("Unbroadcast", nil, gout, in[0]).P())
		addGrad(in[1], g.Add("Unbroadcast", nil, gout, in[1]).P())
	case "Sub":
		addGrad(in[0], g.Add("Unbroadcast", nil, gout, in[0]).P())
		neg := g.Add("Neg", nil, gout)
		addGrad(in[1], g.Add("Unbroadcast", nil, neg.P(), in[1]).P())
	case "Mul":
		ga := g.Add("Mul", nil, gout, in[1])
		gb := g.Add("Mul", nil, gout, in[0])
		addGrad(in[0], g.Add("Unbroadcast", nil, ga.P(), in[0]).P())
		addGrad(in[1], g.Add("Unbroadcast", nil, gb.P(), in[1]).P())
	case "Div":
		ga := g.Add("Div", nil, gout, in[1])
		addGrad(in[0], g.Add("Unbroadcast", nil, ga.P(), in[0]).P())
		// gb = -g*a/b^2
		num := g.Add("Mul", nil, gout, in[0])
		den := g.Add("Mul", nil, in[1], in[1])
		gb := g.Add("Neg", nil, g.Add("Div", nil, num.P(), den.P()).P())
		addGrad(in[1], g.Add("Unbroadcast", nil, gb.P(), in[1]).P())
	case "Neg":
		addGrad(in[0], g.Add("Neg", nil, gout).P())
	case "Maximum", "Minimum":
		isMax := n.Op == "Maximum"
		ga := g.Add("ExtremumGrad", map[string]Val{"max": isMax, "side": 0}, in[0], in[1], gout)
		gb := g.Add("ExtremumGrad", map[string]Val{"max": isMax, "side": 1}, in[0], in[1], gout)
		addGrad(in[0], g.Add("Unbroadcast", nil, ga.P(), in[0]).P())
		addGrad(in[1], g.Add("Unbroadcast", nil, gb.P(), in[1]).P())
	case "Pow":
		// Only constant exponents are differentiable here; the converter
		// guarantees this by specializing the exponent.
		expNode := in[1].Node
		if expNode.Op != "Const" {
			return fmt.Errorf("graph: Pow gradient needs constant exponent")
		}
		ev, err := AsTensor(expNode.Attr("value"))
		if err != nil || ev.Size() != 1 {
			return fmt.Errorf("graph: Pow exponent must be scalar")
		}
		pg := g.Add("PowGrad", map[string]Val{"p": ev.Item()}, in[0], gout)
		addGrad(in[0], pg.P())
	case "MatMul":
		ga := g.Add("MatMul", nil, gout, g.Add("Transpose", nil, in[1]).P())
		gb := g.Add("MatMul", nil, g.Add("Transpose", nil, in[0]).P(), gout)
		addGrad(in[0], ga.P())
		addGrad(in[1], gb.P())
	case "ReLU":
		addGrad(in[0], g.Add("ReLUGrad", nil, in[0], gout).P())
	case "Sigmoid":
		addGrad(in[0], g.Add("SigmoidGradFromOut", nil, n.P(), gout).P())
	case "Tanh":
		addGrad(in[0], g.Add("TanhGradFromOut", nil, n.P(), gout).P())
	case "Exp":
		addGrad(in[0], g.Add("Mul", nil, gout, n.P()).P())
	case "Log":
		addGrad(in[0], g.Add("LogGrad", nil, in[0], gout).P())
	case "Softmax":
		addGrad(in[0], g.Add("SoftmaxGrad", nil, n.P(), gout).P())
	case "Sum":
		addGrad(in[0], g.Add("FillLike", map[string]Val{"scale": 1.0}, in[0], gout).P())
	case "Mean":
		addGrad(in[0], g.Add("FillLike", map[string]Val{"scale": 1.0, "divByCount": true}, in[0], gout).P())
	case "Reshape", "ExpandDims":
		rs := g.Add("ReshapeLike", nil, gout, in[0])
		addGrad(in[0], rs.P())
	case "Transpose":
		addGrad(in[0], g.Add("Transpose", nil, gout).P())
	case "Concat":
		axis := n.IntAttr("axis", 0)
		// Each input gets the matching slice; widths are resolved at run time
		// via the ConcatGradDyn op pair — but our converter always knows the
		// static widths, so require shape attr.
		widths, ok := n.Attr("widths").([]int)
		if !ok {
			return fmt.Errorf("graph: Concat gradient needs widths attr")
		}
		off := 0
		for i, p := range in {
			sl := g.Add("ConcatGradSlice", map[string]Val{"axis": axis, "lo": off, "hi": off + widths[i]}, gout)
			addGrad(p, sl.P())
			off += widths[i]
		}
	case "Slice":
		shape, ok := n.Attr("inShape").([]int)
		if !ok {
			return fmt.Errorf("graph: Slice gradient needs inShape attr")
		}
		sg := g.Add("SliceGrad", map[string]Val{
			"axis": n.IntAttr("axis", 0), "lo": n.IntAttr("lo", 0), "shape": shape,
		}, gout)
		addGrad(in[0], sg.P())
	case "Conv2D":
		attrs := map[string]Val{"stride": n.IntAttr("stride", 1), "pad": n.IntAttr("pad", 0)}
		gx := g.Add("Conv2DGradInput", attrs, in[0], in[1], gout)
		gw := g.Add("Conv2DGradFilter", attrs, in[0], in[1], gout)
		addGrad(in[0], gx.P())
		addGrad(in[1], gw.P())
	case "MaxPool":
		attrs := map[string]Val{"k": n.IntAttr("k", 2), "stride": n.IntAttr("stride", 2)}
		addGrad(in[0], g.Add("MaxPoolGrad", attrs, in[0], gout).P())
	case "AvgPool":
		attrs := map[string]Val{"k": n.IntAttr("k", 2), "stride": n.IntAttr("stride", 2)}
		addGrad(in[0], g.Add("AvgPoolGrad", attrs, in[0], gout).P())
	case "Gather":
		addGrad(in[0], g.Add("GatherGrad", nil, in[0], in[1], gout).P())
	case "CrossEntropy":
		ce := g.Add("CrossEntropyGrad", nil, in[0], in[1])
		scaled := g.Add("ScaleByScalar", nil, ce.P(), gout)
		addGrad(in[0], scaled.P())
	case "MSE":
		addGrad(in[0], g.Add("MSEGrad", nil, in[0], in[1], gout).P())
	case "Stack":
		for i, p := range in {
			sl := g.Add("Slice", map[string]Val{"axis": 0, "lo": i, "hi": i + 1}, gout)
			rs := g.Add("ReshapeLike", nil, sl.P(), p)
			addGrad(p, rs.P())
		}
	case "BatchNorm":
		// Pass-through gradient, matching the eager engine's approximation.
		addGrad(in[0], gout)
	case "Unbroadcast", "FillLike", "ReLUGrad", "SigmoidGradFromOut",
		"TanhGradFromOut", "SoftmaxGrad", "MaxPoolGrad", "AvgPoolGrad",
		"Conv2DGradInput", "Conv2DGradFilter", "GatherGrad", "SliceGrad",
		"ConcatGradSlice", "CrossEntropyGrad", "MSEGrad", "PowGrad",
		"LogGrad", "ReshapeLike", "ScaleByScalar", "Scale", "Print", "Assert":
		// Gradient-of-gradient is out of scope.
		return nil
	default:
		return fmt.Errorf("graph: no gradient registered for op %s", n.Op)
	}
	return nil
}

func init() {
	// ReshapeLike reshapes input 0 to the shape of input 1 at run time.
	Kernels["ReshapeLike"] = func(n *Node, in []Val) ([]Val, error) {
		a, err := AsTensor(in[0])
		if err != nil {
			return nil, err
		}
		ref, err := AsTensor(in[1])
		if err != nil {
			return nil, err
		}
		return []Val{a.Reshape(ref.Shape()...)}, nil
	}
	// ExtremumGrad routes the upstream gradient to the winning side of a
	// Maximum/Minimum op (side 0 = first input, ties included).
	Kernels["ExtremumGrad"] = func(n *Node, in []Val) ([]Val, error) {
		a, err := AsTensor(in[0])
		if err != nil {
			return nil, err
		}
		b, err := AsTensor(in[1])
		if err != nil {
			return nil, err
		}
		g, err := AsTensor(in[2])
		if err != nil {
			return nil, err
		}
		isMax := n.Attrs["max"] == true
		side := n.IntAttr("side", 0)
		mask := tensor.Zip(a, b, func(x, y float64) float64 {
			win := (isMax && x >= y) || (!isMax && x <= y)
			if (win && side == 0) || (!win && side == 1) {
				return 1
			}
			return 0
		})
		return []Val{tensor.Mul(g, mask)}, nil
	}
	// ScaleByScalar multiplies input 0 by scalar tensor input 1.
	Kernels["ScaleByScalar"] = func(n *Node, in []Val) ([]Val, error) {
		a, err := AsTensor(in[0])
		if err != nil {
			return nil, err
		}
		s, err := AsTensor(in[1])
		if err != nil {
			return nil, err
		}
		return []Val{tensor.MulScalar(a, s.Item())}, nil
	}
}
