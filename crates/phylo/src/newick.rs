//! Newick tree serialization.
//!
//! fastDNAml ships trees between the master, foreman, and workers as ASCII
//! tree strings; this module provides the parser and writer, plus the
//! conversions between the generic Newick AST (which tolerates rooted and
//! multifurcating trees, as consensus trees are) and the strictly binary
//! unrooted [`Tree`].

use crate::alignment::{Alignment, TaxonId};
use crate::error::PhyloError;
use crate::tree::{NodeId, Tree};
use std::fmt::Write as _;

/// A node of a parsed Newick tree. Leaves have a `name` and no children;
/// internal nodes may also carry a label (ignored by [`ast_to_tree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NewickNode {
    /// Leaf or internal label.
    pub name: Option<String>,
    /// Branch length to the parent (absent on the root).
    pub length: Option<f64>,
    /// Child subtrees; empty for a leaf.
    pub children: Vec<NewickNode>,
}

impl NewickNode {
    /// Construct a leaf.
    pub fn leaf(name: impl Into<String>, length: Option<f64>) -> NewickNode {
        NewickNode {
            name: Some(name.into()),
            length,
            children: Vec::new(),
        }
    }

    /// Construct an internal node.
    pub fn internal(children: Vec<NewickNode>, length: Option<f64>) -> NewickNode {
        NewickNode {
            name: None,
            length,
            children,
        }
    }

    /// Is this a leaf?
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// All leaf names in depth-first order.
    pub fn leaf_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(n) = stack.pop() {
            if n.is_leaf() {
                if let Some(name) = &n.name {
                    out.push(name.as_str());
                }
            } else {
                for c in n.children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }
}

/// Parse one Newick string (must end with `;`).
pub fn parse(text: &str) -> Result<NewickNode, PhyloError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let node = p.parse_node()?;
    p.skip_ws();
    p.expect(b';')?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(PhyloError::Format(format!(
            "trailing characters after ';' at byte {}",
            p.pos
        )));
    }
    Ok(node)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), PhyloError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(PhyloError::Format(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn parse_node(&mut self) -> Result<NewickNode, PhyloError> {
        self.skip_ws();
        let mut node = if self.peek() == Some(b'(') {
            self.pos += 1;
            let mut children = vec![self.parse_node()?];
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        children.push(self.parse_node()?);
                    }
                    Some(b')') => {
                        self.pos += 1;
                        break;
                    }
                    other => {
                        return Err(PhyloError::Format(format!(
                            "expected ',' or ')' at byte {}, found {other:?}",
                            self.pos
                        )))
                    }
                }
            }
            NewickNode {
                name: None,
                length: None,
                children,
            }
        } else {
            NewickNode {
                name: None,
                length: None,
                children: Vec::new(),
            }
        };
        // Optional label.
        let label = self.parse_label()?;
        if !label.is_empty() {
            node.name = Some(label);
        } else if node.is_leaf() {
            return Err(PhyloError::Format(format!(
                "leaf without a name at byte {}",
                self.pos
            )));
        }
        // Optional branch length.
        self.skip_ws();
        if self.peek() == Some(b':') {
            self.pos += 1;
            node.length = Some(self.parse_number()?);
        }
        Ok(node)
    }

    fn parse_label(&mut self) -> Result<String, PhyloError> {
        self.skip_ws();
        if self.peek() == Some(b'\'') {
            // Quoted label; '' is an escaped quote.
            self.pos += 1;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'\'') if self.bytes.get(self.pos + 1) == Some(&b'\'') => {
                        out.push('\'');
                        self.pos += 2;
                    }
                    Some(b'\'') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b) => {
                        out.push(b as char);
                        self.pos += 1;
                    }
                    None => {
                        return Err(PhyloError::Format("unterminated quoted label".into()));
                    }
                }
            }
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'(' | b')' | b',' | b':' | b';') || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_number(&mut self) -> Result<f64, PhyloError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        s.parse::<f64>()
            .map_err(|_| PhyloError::Format(format!("invalid branch length {s:?} at byte {start}")))
    }
}

/// Render a Newick AST as a string (with branch lengths where present).
pub fn write(node: &NewickNode) -> String {
    let mut out = String::new();
    write_node(node, &mut out);
    out.push(';');
    out
}

fn write_node(node: &NewickNode, out: &mut String) {
    if !node.children.is_empty() {
        out.push('(');
        for (i, c) in node.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_node(c, out);
        }
        out.push(')');
    }
    if let Some(name) = &node.name {
        write_name(name, out);
    }
    if let Some(len) = node.length {
        write_length(len, out);
    }
}

fn write_name(name: &str, out: &mut String) {
    if name.chars().any(|c| "(),:;' \t".contains(c)) {
        out.push('\'');
        out.push_str(&name.replace('\'', "''"));
        out.push('\'');
    } else {
        out.push_str(name);
    }
}

fn write_length(len: f64, out: &mut String) {
    // Enough digits to round-trip branch lengths through text exactly
    // like fastDNAml's %.6f, but without losing worker results.
    write!(out, ":{len:.9}").expect("writing to a String cannot fail");
}

/// Serialize an unrooted binary [`Tree`] to a Newick string, rooting the
/// serialization at the internal node adjacent to the lowest-numbered taxon
/// (deterministic, so equal trees serialize identically). Written straight
/// from the tree into one buffer: this is on the path of every task.
pub fn write_tree(tree: &Tree, names: &[String]) -> String {
    let mut out = String::new();
    out.push('(');
    if tree.num_tips() == 2 {
        let mut tips: Vec<(NodeId, TaxonId)> = tree.tips().collect();
        tips.sort_by_key(|&(_, t)| t);
        let e = tree.edge_ids().next().expect("pair has an edge");
        let half = tree.length(e) / 2.0;
        for (i, &(_, taxon)) in tips.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_taxon(taxon, names, &mut out);
            write_length(half, &mut out);
        }
    } else {
        let lowest = tree
            .tips()
            .min_by_key(|&(_, t)| t)
            .expect("tree has tips")
            .0;
        let root = tree.neighbors(lowest).next().expect("tip has a neighbor").1;
        for (i, (edge, next)) in tree.neighbors(root).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_subtree(tree, next, edge, names, &mut out);
        }
    }
    out.push_str(");");
    out
}

fn write_taxon(taxon: TaxonId, names: &[String], out: &mut String) {
    match names.get(taxon as usize) {
        Some(name) => write_name(name, out),
        None => write!(out, "taxon{taxon}").expect("writing to a String cannot fail"),
    }
}

fn write_subtree(
    tree: &Tree,
    node: NodeId,
    via: crate::tree::EdgeId,
    names: &[String],
    out: &mut String,
) {
    if let Some(taxon) = tree.taxon(node) {
        write_taxon(taxon, names, out);
    } else {
        out.push('(');
        let mut first = true;
        for (edge, next) in tree.neighbors(node) {
            if edge != via {
                if !first {
                    out.push(',');
                }
                first = false;
                write_subtree(tree, next, edge, names, out);
            }
        }
        out.push(')');
    }
    write_length(tree.length(via), out);
}

/// Convert a Newick AST into an unrooted binary [`Tree`], resolving leaf
/// names through `resolve`. Rooted binary inputs (root with two children)
/// are unrooted by fusing the root's two branches; a trifurcating root maps
/// directly onto an internal node. Multifurcations elsewhere are rejected.
pub fn ast_to_tree(
    ast: &NewickNode,
    mut resolve: impl FnMut(&str) -> Result<TaxonId, PhyloError>,
) -> Result<Tree, PhyloError> {
    let mut tree = Tree::empty();
    match ast.children.len() {
        0 => Err(PhyloError::Format(
            "single-leaf Newick cannot form a tree".into(),
        )),
        1 => Err(PhyloError::Format(
            "root with a single child is not supported".into(),
        )),
        2 => {
            // Rooted: fuse the two root branches into one edge.
            let a = build_subtree(&mut tree, &ast.children[0], &mut resolve)?;
            let b = build_subtree(&mut tree, &ast.children[1], &mut resolve)?;
            let len = ast.children[0]
                .length
                .unwrap_or(crate::tree::DEFAULT_BRANCH_LENGTH / 2.0)
                + ast.children[1]
                    .length
                    .unwrap_or(crate::tree::DEFAULT_BRANCH_LENGTH / 2.0);
            tree.add_edge_raw(a, b, len);
            tree.check_valid()?;
            Ok(tree)
        }
        3 => {
            let center = tree.add_node_raw(None);
            for child in &ast.children {
                let sub = build_subtree(&mut tree, child, &mut resolve)?;
                let len = child.length.unwrap_or(crate::tree::DEFAULT_BRANCH_LENGTH);
                tree.add_edge_raw(center, sub, len);
            }
            tree.check_valid()?;
            Ok(tree)
        }
        n => Err(PhyloError::Format(format!(
            "root multifurcation of degree {n} is not a binary tree"
        ))),
    }
}

fn build_subtree(
    tree: &mut Tree,
    ast: &NewickNode,
    resolve: &mut impl FnMut(&str) -> Result<TaxonId, PhyloError>,
) -> Result<NodeId, PhyloError> {
    if ast.is_leaf() {
        let name = ast
            .name
            .as_deref()
            .ok_or_else(|| PhyloError::Format("leaf without a name".into()))?;
        return Ok(tree.add_node_raw(Some(resolve(name)?)));
    }
    if ast.children.len() != 2 {
        return Err(PhyloError::Format(format!(
            "internal multifurcation of degree {} is not binary",
            ast.children.len()
        )));
    }
    let node = tree.add_node_raw(None);
    for child in &ast.children {
        let sub = build_subtree(tree, child, resolve)?;
        let len = child.length.unwrap_or(crate::tree::DEFAULT_BRANCH_LENGTH);
        tree.add_edge_raw(node, sub, len);
    }
    Ok(node)
}

/// Parse a Newick string into a [`Tree`], resolving names via an alignment.
pub fn parse_tree(text: &str, alignment: &Alignment) -> Result<Tree, PhyloError> {
    let ast = parse(text)?;
    ast_to_tree(&ast, |name| alignment.taxon_id(name))
}

/// Parse a Newick string into a [`Tree`] using a plain label table.
pub fn parse_tree_with_names(text: &str, names: &[String]) -> Result<Tree, PhyloError> {
    let ast = parse(text)?;
    ast_to_tree(&ast, |name| {
        names
            .iter()
            .position(|n| n == name)
            .map(|i| i as TaxonId)
            .ok_or_else(|| PhyloError::UnknownTaxon(name.to_string()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn parses_simple_rooted() {
        let ast = parse("(a:1.0,b:2.0);").unwrap();
        assert_eq!(ast.children.len(), 2);
        assert_eq!(ast.children[0].name.as_deref(), Some("a"));
        assert_eq!(ast.children[1].length, Some(2.0));
    }

    #[test]
    fn parses_nested_with_internal_labels() {
        let ast = parse("((a:1,b:1)ab:0.5,c:2,d:1);").unwrap();
        assert_eq!(ast.children.len(), 3);
        assert_eq!(ast.children[0].name.as_deref(), Some("ab"));
        assert_eq!(ast.children[0].children.len(), 2);
    }

    #[test]
    fn parses_quoted_labels() {
        let ast = parse("('taxon one':1,'it''s':2);").unwrap();
        assert_eq!(ast.children[0].name.as_deref(), Some("taxon one"));
        assert_eq!(ast.children[1].name.as_deref(), Some("it's"));
    }

    #[test]
    fn parses_scientific_notation_lengths() {
        let ast = parse("(a:1e-3,b:2.5E2);").unwrap();
        assert_eq!(ast.children[0].length, Some(1e-3));
        assert_eq!(ast.children[1].length, Some(250.0));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("(a,b)").is_err()); // missing ;
        assert!(parse("(a,b);x").is_err()); // trailing junk
        assert!(parse("(a,);").is_err()); // unnamed leaf
        assert!(parse("a,b);").is_err());
        assert!(parse("(a:xyz,b);").is_err());
    }

    #[test]
    fn ast_roundtrip_through_text() {
        let text = "((a:1.000000000,b:2.500000000):0.100000000,c:3.000000000,d:0.010000000);";
        let ast = parse(text).unwrap();
        assert_eq!(write(&ast), text);
    }

    #[test]
    fn tree_roundtrip_triplet() {
        let t = Tree::triplet(0, 1, 2);
        let s = write_tree(&t, &names(3));
        let t2 = parse_tree_with_names(&s, &names(3)).unwrap();
        assert_eq!(t2.num_tips(), 3);
        t2.check_valid().unwrap();
    }

    #[test]
    fn tree_roundtrip_pair() {
        let mut t = Tree::pair(0, 1);
        let e = t.edge_ids().next().unwrap();
        t.set_length(e, 0.8);
        let s = write_tree(&t, &names(2));
        let t2 = parse_tree_with_names(&s, &names(2)).unwrap();
        assert_eq!(t2.num_tips(), 2);
        let e2 = t2.edge_ids().next().unwrap();
        assert!((t2.length(e2) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn tree_roundtrip_preserves_lengths() {
        let mut t = Tree::triplet(0, 1, 2);
        let e = t.incident_edges(t.tip_of(1).unwrap())[0];
        t.insert_taxon(3, e).unwrap();
        let e = t.incident_edges(t.tip_of(3).unwrap())[0];
        t.insert_taxon(4, e).unwrap();
        // Give every edge a distinct length.
        for (i, e) in t.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            t.set_length(e, 0.01 * (i + 1) as f64);
        }
        let total = t.total_length();
        let s = write_tree(&t, &names(5));
        let t2 = parse_tree_with_names(&s, &names(5)).unwrap();
        assert!((t2.total_length() - total).abs() < 1e-9);
        assert_eq!(t2.taxa(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rooted_binary_input_is_unrooted() {
        let nm = names(4);
        let t = parse_tree_with_names("((t0:1,t1:1):0.5,(t2:1,t3:1):0.5);", &nm).unwrap();
        t.check_valid().unwrap();
        assert_eq!(t.num_tips(), 4);
        // Root fusion: 0.5 + 0.5 edge.
        let internal: Vec<_> = t.internal_edges().collect();
        assert_eq!(internal.len(), 1);
        assert!((t.length(internal[0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multifurcation_rejected_for_tree() {
        let nm = names(5);
        assert!(parse_tree_with_names("(t0,t1,t2,t3);", &nm).is_err());
        assert!(parse_tree_with_names("((t0,t1,t2),t3,t4);", &nm).is_err());
    }

    #[test]
    fn unknown_name_rejected() {
        let nm = names(3);
        assert!(parse_tree_with_names("(t0:1,t1:1,zzz:1);", &nm).is_err());
    }

    #[test]
    fn deterministic_serialization() {
        let t = Tree::triplet(2, 0, 1);
        let s1 = write_tree(&t, &names(3));
        let s2 = write_tree(&t.clone(), &names(3));
        assert_eq!(s1, s2);
    }

    #[test]
    fn leaf_names_in_order() {
        let ast = parse("((a,b),c,d);").unwrap();
        assert_eq!(ast.leaf_names(), vec!["a", "b", "c", "d"]);
    }
}
