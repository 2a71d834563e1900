//! Parser for the plain-text netlist format.

use columba_geom::Um;

use crate::error::NetlistError;
use crate::model::{
    ChamberSpec, ComponentKind, ControlAccess, Endpoint, MixerSpec, MuxCount, Netlist, SwitchSpec,
    UnitSide,
};

impl Netlist {
    /// Parses the plain-text netlist format.
    ///
    /// Lines are independent; `#` starts a comment; blank lines are ignored.
    /// The parsed netlist is validated before being returned.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Parse`] with a line number for syntax errors,
    /// and the validation errors of [`Netlist::validate`] for structural
    /// ones.
    pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
        let mut n = Netlist::new("unnamed");
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let Some(keyword) = words.next() else {
                continue; // unreachable: the line is non-empty after trim
            };
            let rest: Vec<&str> = words.collect();
            match keyword {
                "chip" => {
                    n.name = one_arg(&rest, line_no, "chip takes exactly one name")?.to_string();
                }
                "mux" => {
                    n.mux_count = match one_arg(&rest, line_no, "mux takes 1 or 2")? {
                        "1" => MuxCount::One,
                        "2" => MuxCount::Two,
                        other => {
                            return Err(err(
                                line_no,
                                format!("mux count must be 1 or 2, got `{other}`"),
                            ))
                        }
                    };
                }
                "mixer" => {
                    let (name, opts) = name_and_opts(&rest, line_no)?;
                    let mut spec = MixerSpec::default();
                    for opt in opts {
                        match opt {
                            Opt::Pair("width", v) => spec.width = parse_mm(v, line_no)?,
                            Opt::Pair("length", v) => spec.length = parse_mm(v, line_no)?,
                            Opt::Pair("access", v) => {
                                spec.access = match v {
                                    "top" => ControlAccess::Top,
                                    "bottom" => ControlAccess::Bottom,
                                    "both" => ControlAccess::Both,
                                    other => {
                                        return Err(err(
                                            line_no,
                                            format!(
                                                "access must be top|bottom|both, got `{other}`"
                                            ),
                                        ))
                                    }
                                };
                            }
                            Opt::Flag("sieve") => spec.sieve_valves = true,
                            Opt::Flag("celltrap") => spec.cell_traps = true,
                            other => return Err(unknown_opt(line_no, &other)),
                        }
                    }
                    n.add_component(name, ComponentKind::Mixer(spec))?;
                }
                "chamber" => {
                    let (name, opts) = name_and_opts(&rest, line_no)?;
                    let mut spec = ChamberSpec::default();
                    for opt in opts {
                        match opt {
                            Opt::Pair("width", v) => spec.width = parse_mm(v, line_no)?,
                            Opt::Pair("length", v) => spec.length = parse_mm(v, line_no)?,
                            other => return Err(unknown_opt(line_no, &other)),
                        }
                    }
                    n.add_component(name, ComponentKind::Chamber(spec))?;
                }
                "switch" => {
                    let (name, opts) = name_and_opts(&rest, line_no)?;
                    let mut junctions = None;
                    for opt in opts {
                        match opt {
                            Opt::Pair("junctions", v) => {
                                junctions = Some(v.parse::<usize>().map_err(|_| {
                                    err(line_no, format!("junctions must be an integer, got `{v}`"))
                                })?);
                            }
                            other => return Err(unknown_opt(line_no, &other)),
                        }
                    }
                    let junctions = junctions
                        .ok_or_else(|| err(line_no, "switch requires junctions=<n>".into()))?;
                    if junctions == 0 {
                        return Err(err(line_no, "switch needs at least one junction".into()));
                    }
                    n.add_component(name, ComponentKind::Switch(SwitchSpec { junctions }))?;
                }
                "port" => {
                    n.add_port(one_arg(&rest, line_no, "port takes exactly one name")?)?;
                }
                "connect" => {
                    if rest.len() != 3 || rest[1] != "->" {
                        return Err(err(line_no, "expected `connect <a> -> <b>`".into()));
                    }
                    let from = parse_endpoint(&n, rest[0], line_no)?;
                    let to = parse_endpoint(&n, rest[2], line_no)?;
                    n.connect(from, to)?;
                }
                "parallel" => {
                    if rest.len() < 2 {
                        return Err(err(
                            line_no,
                            "parallel needs at least two unit names".into(),
                        ));
                    }
                    let mut ids = Vec::with_capacity(rest.len());
                    for name in &rest {
                        let id = n
                            .component_by_name(name)
                            .ok_or_else(|| err(line_no, format!("unknown unit `{name}`")))?;
                        ids.push(id);
                    }
                    n.add_parallel_group(ids)?;
                }
                other => {
                    return Err(err(line_no, format!("unknown keyword `{other}`")));
                }
            }
        }
        n.validate()?;
        Ok(n)
    }
}

#[derive(Debug)]
enum Opt<'a> {
    Pair(&'a str, &'a str),
    Flag(&'a str),
}

fn err(line: usize, message: String) -> NetlistError {
    NetlistError::Parse { line, message }
}

fn unknown_opt(line: usize, opt: &Opt<'_>) -> NetlistError {
    let text = match opt {
        Opt::Pair(k, v) => format!("{k}={v}"),
        Opt::Flag(k) => (*k).to_string(),
    };
    err(line, format!("unknown option `{text}`"))
}

fn one_arg<'a>(rest: &[&'a str], line: usize, msg: &str) -> Result<&'a str, NetlistError> {
    if rest.len() == 1 {
        Ok(rest[0])
    } else {
        Err(err(line, msg.to_string()))
    }
}

fn name_and_opts<'a>(
    rest: &[&'a str],
    line: usize,
) -> Result<(&'a str, Vec<Opt<'a>>), NetlistError> {
    let Some((&name, opts)) = rest.split_first() else {
        return Err(err(line, "missing component name".into()));
    };
    if name.contains('=') || name.contains('.') {
        return Err(err(line, format!("invalid component name `{name}`")));
    }
    let opts = opts
        .iter()
        .map(|w| match w.split_once('=') {
            Some((k, v)) => Opt::Pair(k, v),
            None => Opt::Flag(w),
        })
        .collect();
    Ok((name, opts))
}

fn parse_mm(v: &str, line: usize) -> Result<Um, NetlistError> {
    let mm: f64 = v
        .parse()
        .map_err(|_| err(line, format!("expected a millimetre value, got `{v}`")))?;
    // the upper bound keeps downstream Um arithmetic far from i64 overflow
    if !(mm.is_finite() && mm > 0.0 && mm <= 10_000.0) {
        return Err(err(
            line,
            format!("size must be positive, finite and at most 10000 mm, got `{v}`"),
        ));
    }
    Ok(Um::from_mm(mm))
}

fn parse_endpoint(n: &Netlist, text: &str, line: usize) -> Result<Endpoint, NetlistError> {
    if let Some((name, side)) = text.split_once('.') {
        let component = n
            .component_by_name(name)
            .ok_or_else(|| err(line, format!("unknown component `{name}`")))?;
        let side = match side {
            "left" => UnitSide::Left,
            "right" => UnitSide::Right,
            other => return Err(err(line, format!("side must be left|right, got `{other}`"))),
        };
        Ok(Endpoint::Unit { component, side })
    } else if let Some(p) = n.port_by_name(text) {
        Ok(Endpoint::Port(p))
    } else if n.component_by_name(text).is_some() {
        Err(err(
            line,
            format!("component endpoint `{text}` needs a side: `{text}.left` or `{text}.right`"),
        ))
    } else {
        Err(err(line, format!("unknown endpoint name `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Component;

    const SAMPLE: &str = "\
# ChIP-style demo
chip demo
mux 2
mixer pre width=3.2 length=1.6 access=both sieve
mixer m1 access=top
chamber c1 width=0.9 length=1.1
switch s1 junctions=3
port lysate
port waste
connect lysate -> pre.left
connect pre.right -> s1.left
connect s1.right -> m1.left
connect m1.right -> c1.left
connect c1.right -> waste
";

    #[test]
    fn parses_all_statements() {
        let n = Netlist::parse(SAMPLE).unwrap();
        assert_eq!(n.name, "demo");
        assert_eq!(n.mux_count, MuxCount::Two);
        assert_eq!(n.functional_unit_count(), 3);
        assert_eq!(n.switch_count(), 1);
        assert_eq!(n.ports().len(), 2);
        assert_eq!(n.connections().len(), 5);
        let Component { kind, .. } = &n.components()[0];
        let ComponentKind::Mixer(m) = kind else {
            panic!("expected mixer")
        };
        assert_eq!(m.width, Um::from_mm(3.2));
        assert!(m.sieve_valves);
        assert!(!m.cell_traps);
    }

    #[test]
    fn round_trip_through_text() {
        let n = Netlist::parse(SAMPLE).unwrap();
        let again = Netlist::parse(&n.to_text()).unwrap();
        assert_eq!(n, again);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let n = Netlist::parse("\n# hi\nchip c\nmixer m1 # trailing comment\n").unwrap();
        assert_eq!(n.functional_unit_count(), 1);
    }

    #[test]
    fn error_carries_line_number() {
        let e = Netlist::parse("chip c\nbogus m1\n").unwrap_err();
        let NetlistError::Parse { line, message } = e else {
            panic!("{e}")
        };
        assert_eq!(line, 2);
        assert!(message.contains("bogus"));
    }

    #[test]
    fn bad_mux_count() {
        assert!(Netlist::parse("chip c\nmux 3\nmixer m1\n").is_err());
    }

    #[test]
    fn bad_connect_arrow() {
        let e = Netlist::parse("chip c\nmixer m1\nport p\nconnect p m1.left\n").unwrap_err();
        assert!(e.to_string().contains("->"));
    }

    #[test]
    fn endpoint_without_side_is_helpful() {
        let e = Netlist::parse("chip c\nmixer m1\nport p\nconnect p -> m1\n").unwrap_err();
        assert!(e.to_string().contains("needs a side"), "{e}");
    }

    #[test]
    fn unknown_endpoint_name_is_spanned() {
        let e = Netlist::parse("chip c\nmixer m1\nport p\nconnect p -> ghost.left\n").unwrap_err();
        let NetlistError::Parse { line, message } = e else {
            panic!("expected a spanned parse error, got {e}");
        };
        assert_eq!(line, 4);
        assert!(message.contains("ghost"), "{message}");
        // a bare unknown name (no side) is spanned too
        let e = Netlist::parse("chip c\nmixer m1\nport p\nconnect p -> ghost\n").unwrap_err();
        assert!(matches!(e, NetlistError::Parse { line: 4, .. }), "{e}");
    }

    #[test]
    fn oversized_dimension_rejected() {
        assert!(Netlist::parse("chip c\nmixer m1 width=1e30\n").is_err());
        assert!(Netlist::parse("chip c\nmixer m1 width=inf\n").is_err());
        assert!(Netlist::parse("chip c\nmixer m1 width=nan\n").is_err());
    }

    #[test]
    fn negative_size_rejected() {
        assert!(Netlist::parse("chip c\nmixer m1 width=-1\n").is_err());
        assert!(Netlist::parse("chip c\nmixer m1 width=abc\n").is_err());
    }

    #[test]
    fn switch_requires_junctions() {
        assert!(Netlist::parse("chip c\nmixer m1\nswitch s1\n").is_err());
        assert!(Netlist::parse("chip c\nmixer m1\nswitch s1 junctions=0\n").is_err());
    }

    #[test]
    fn parallel_parses_and_validates() {
        let text = "chip c\nmixer m1\nmixer m2\nparallel m1 m2\n";
        let n = Netlist::parse(text).unwrap();
        assert_eq!(n.parallel_groups().len(), 1);
        assert!(Netlist::parse("chip c\nmixer m1\nparallel m1\n").is_err());
        assert!(Netlist::parse("chip c\nmixer m1\nparallel m1 ghost\n").is_err());
    }

    #[test]
    fn duplicate_names_fail_the_parse() {
        for text in [
            "chip c\nmixer m1\nchamber m1\n",
            "chip c\nmixer m1\nport m1\n",
            "chip c\nport m1\nmixer m1\n",
            "chip c\nmixer m2\nport m1\nport m1\n",
        ] {
            let e = Netlist::parse(text).unwrap_err();
            assert_eq!(e, NetlistError::DuplicateName("m1".into()), "{text}");
        }
    }

    #[test]
    fn names_resolve_only_to_their_kind() {
        // a port used as a unit side, and a unit used as a port
        let e =
            Netlist::parse("chip c\nmixer m1\nport p\nconnect p.left -> m1.left\n").unwrap_err();
        assert!(e.to_string().contains("unknown component `p`"), "{e}");
        let e = Netlist::parse("chip c\nmixer m1\nport p\nconnect m1 -> p\n").unwrap_err();
        assert!(e.to_string().contains("needs a side"), "{e}");
    }

    #[test]
    fn large_chip_round_trips_through_text() {
        let n = crate::generators::chip_ip(128, MuxCount::Two);
        let again = Netlist::parse(&n.to_text()).unwrap();
        assert_eq!(again.canonical_text(), n.canonical_text());
        let rc = again.component_by_name("rc127");
        assert!(rc.is_some() && rc == n.component_by_name("rc127"));
    }

    #[test]
    fn unknown_option_reported() {
        let e = Netlist::parse("chip c\nmixer m1 bogus=3\n").unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }
}
