//! Source back-annotation support — the tooling assist for Phase III of
//! the paper's flow (Fig. 3), where the designer manually maps the
//! optimized FORAY model back onto the legacy source.
//!
//! FORAY model references are named by instruction address (`A4002a0`);
//! this module recovers, for each address, the source location of the
//! access site and — where the syntax permits — the variable being
//! accessed, so a report can say `A400020 = q at 9:13` instead of leaving
//! the designer to grep.

use minic::{Expr, Loc, Program, SiteId};
use minic_trace::{layout, InstrAddr};
use std::collections::HashMap;

/// What is known about one access site in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// The site id (instruction address = `CODE_BASE + 4*site`).
    pub site: SiteId,
    /// Source location of the access expression.
    pub loc: Loc,
    /// Enclosing function.
    pub function: String,
    /// Base variable, if the access is a direct subscript or a dereference
    /// of a named pointer (`q[i]` → `q`, `*ptr` → `ptr`).
    pub base: Option<String>,
    /// A short rendering of the access expression.
    pub text: String,
}

/// Maps every access site of a program to its source info.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let prog = minic::frontend("char q[10]; char *p; void main() { p = q; *p++ = 1; }")?;
/// let map = foray::srcmap::site_map(&prog);
/// let deref = map.values().find(|s| s.base.as_deref() == Some("p")).unwrap();
/// assert_eq!(deref.function, "main");
/// # Ok(())
/// # }
/// ```
pub fn site_map(prog: &Program) -> HashMap<InstrAddr, SiteInfo> {
    let mut map = HashMap::new();
    for f in &prog.functions {
        let mut on_expr = |e: &Expr| {
            let (site, loc, base) = match e {
                Expr::Var { name, site, loc } => (*site, *loc, Some(name.clone())),
                Expr::Index { base, site, loc, .. } => {
                    let b = match base.as_ref() {
                        Expr::Var { name, .. } => Some(name.clone()),
                        _ => None,
                    };
                    (*site, *loc, b)
                }
                Expr::Deref { ptr, site, loc } => {
                    let b = base_of_pointer(ptr);
                    (*site, *loc, b)
                }
                _ => return,
            };
            map.insert(
                layout::user_instr(site.0),
                SiteInfo {
                    site,
                    loc,
                    function: f.name.clone(),
                    base,
                    text: minic::pretty::expr(e),
                },
            );
        };
        f.visit_exprs(&mut on_expr);
    }
    map
}

/// Digs the named pointer out of `*ptr`, `*ptr++`, `*(p + n)`, ...
fn base_of_pointer(e: &Expr) -> Option<String> {
    match e {
        Expr::Var { name, .. } => Some(name.clone()),
        Expr::IncDec { target, .. } => base_of_pointer(target),
        Expr::Binary { lhs, .. } => base_of_pointer(lhs),
        Expr::AddrOf { lvalue, .. } => name_of(lvalue),
        _ => None,
    }
}

fn name_of(e: &Expr) -> Option<String> {
    match e {
        Expr::Var { name, .. } => Some(name.clone()),
        Expr::Index { base, .. } => name_of(base),
        _ => None,
    }
}

/// A back-annotation line for one model reference: where in the source the
/// optimized access lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// The model's array name (`A4002a0`).
    pub array: String,
    /// Source info of the underlying site (absent for synthetic traffic).
    pub site: Option<SiteInfo>,
}

/// Produces back-annotations for every reference of a model.
pub fn annotate(model: &crate::ForayModel, prog: &Program) -> Vec<Annotation> {
    let map = site_map(prog);
    model
        .refs
        .iter()
        .map(|r| Annotation { array: r.array_name(), site: map.get(&r.instr).cloned() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FilterConfig, ForayGen};

    #[test]
    fn maps_fig4_reference_to_the_pointer_walk() {
        let src = "char q[10000];
char *ptr;
void main() {
    int i; int t1 = 98;
    ptr = q;
    while (t1 < 100) {
        t1++;
        ptr += 100;
        for (i = 40; i > 37; i--) { *ptr++ = i * i % 256; }
    }
}";
        let out =
            ForayGen::new().filter(FilterConfig { n_exec: 6, n_loc: 6 }).run_source(src).unwrap();
        let notes = annotate(&out.model, &out.program);
        assert_eq!(notes.len(), 1);
        let site = notes[0].site.as_ref().expect("site resolves");
        assert_eq!(site.function, "main");
        assert_eq!(site.base.as_deref(), Some("ptr"));
        assert_eq!(site.loc.line, 9);
        assert_eq!(site.text, "*ptr++");
    }

    #[test]
    fn direct_subscripts_resolve_their_array() {
        let out = ForayGen::new()
            .run_source(
                "int table[64]; void main() { int i; int r;
                 for (i = 0; i < 64; i++) { r += table[i]; } print_int(r); }",
            )
            .unwrap();
        let notes = annotate(&out.model, &out.program);
        let t = notes
            .iter()
            .find(|n| n.site.as_ref().and_then(|s| s.base.as_deref()) == Some("table"))
            .expect("table site found");
        assert!(t.site.as_ref().unwrap().text.contains("table["));
    }

    #[test]
    fn synthetic_traffic_has_no_source_site() {
        // Library references carry library instruction addresses that map
        // to no source site.
        let map_input = site_map(&minic::frontend("void main() { print_int(input(0)); }").unwrap());
        assert!(!map_input.contains_key(&layout::library_instr(0, 0)));
    }

    #[test]
    fn site_map_covers_every_access_expression() {
        let prog = minic::frontend(
            "int a[4]; int *p; int g;
             void main() { int i; p = a; g = a[1] + *p + p[2]; i = g; }",
        )
        .unwrap();
        let map = site_map(&prog);
        // a (decay), a[1], p (read), *p, p (read), p[2], g write, g read...
        // At minimum the three memory-shaped expressions are present.
        let texts: Vec<&str> = map.values().map(|s| s.text.as_str()).collect();
        assert!(texts.contains(&"a[1]"), "{texts:?}");
        assert!(texts.contains(&"*p"), "{texts:?}");
        assert!(texts.contains(&"p[2]"), "{texts:?}");
    }
}
