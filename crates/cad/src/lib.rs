//! CAD writers: AutoCAD script, DXF and SVG export (paper §3.3).
//!
//! Columba S "outputs the physical synthesis results as an AutoCAD script
//! file, which can be directly exported for mask fabrication". This crate
//! renders a [`Design`] into:
//!
//! * an AutoCAD `.scr` command script ([`write_scr`]) drawing each layer as
//!   `RECTANG`/`PLINE` commands with layer switches,
//! * a minimal ASCII DXF ([`write_dxf`]) with `FLOW`, `CONTROL`, `VALVE`
//!   and `INLET` layers,
//! * an SVG ([`write_svg`]) for quick visual inspection (flow in blue,
//!   control in green, as in the paper's figures).
//!
//! # Examples
//!
//! ```
//! use columba_cad::write_svg;
//! use columba_design::Design;
//! use columba_geom::{Rect, Um};
//!
//! let design = Design::new("empty", Rect::new(Um(0), Um(1_000), Um(0), Um(1_000)));
//! let mut out = Vec::new();
//! write_svg(&design, &mut out)?;
//! assert!(String::from_utf8(out)?.contains("<svg"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{self, Write};

use columba_design::{ChannelRole, Design, InletKind};
use columba_geom::{Layer, Rect, Um};

/// The drawing layer a design object belongs to.
fn layer_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Flow => "FLOW",
        Layer::Control => "CONTROL",
    }
}

/// Bytes buffered before they are handed to the caller's writer.
const CHUNK: usize = 8 * 1024;

/// The writers' output buffer. Text and coordinates are appended as bytes
/// and passed on to `out` in chunks at line ends. Coordinates are integer
/// micrometres, so they are printed as millimetres with integer arithmetic
/// instead of going through `f64` formatting.
struct Sink<W: Write> {
    out: W,
    buf: Vec<u8>,
    /// Digits after the decimal point of every coordinate (at least 3).
    decimals: usize,
}

impl<W: Write> Sink<W> {
    fn new(out: W, decimals: usize) -> Sink<W> {
        Sink {
            out,
            buf: Vec::with_capacity(CHUNK + 256),
            decimals,
        }
    }

    fn text(&mut self, s: &str) -> &mut Sink<W> {
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    fn mm(&mut self, v: Um) -> &mut Sink<W> {
        push_mm(&mut self.buf, v, self.decimals);
        self
    }

    /// Ends the line; a full chunk goes to the writer.
    fn line(&mut self) -> io::Result<()> {
        self.buf.push(b'\n');
        if self.buf.len() >= CHUNK {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.out.flush()
    }
}

/// Appends `v` in millimetres with `decimals` (at least 3) digits after the
/// point. One micrometre is exactly 0.001 mm, so these are the bytes
/// `format!("{:.N}", v.to_mm())` prints for every coordinate an `f64`
/// holds to the micrometre.
fn push_mm(buf: &mut Vec<u8>, v: Um, decimals: usize) {
    let raw = v.raw();
    if raw < 0 {
        buf.push(b'-');
    }
    let abs = raw.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut whole = abs / 1_000;
    loop {
        at -= 1;
        digits[at] = b'0' + (whole % 10) as u8;
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
    let frac = abs % 1_000;
    buf.extend_from_slice(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
    buf.resize(buf.len() + decimals - 3, b'0');
}

/// Writes an AutoCAD command script (`.scr`) reproducing the design.
///
/// The script creates one layer per object class and draws every channel
/// segment, valve pad, module outline and inlet. Feed it to AutoCAD's
/// `SCRIPT` command; units are millimetres.
///
/// # Errors
///
/// Propagates I/O errors from `out`. Pass `&mut` references for writers you
/// want to keep.
pub fn write_scr<W: Write>(design: &Design, out: W) -> io::Result<()> {
    let mut w = Sink::new(out, 4);
    w.text("; Columba S synthesis result: ")
        .text(&design.name)
        .line()?;
    w.text("; units: millimetres").line()?;
    w.text("-OSNAP OFF").line()?;
    for (name, color) in [
        ("OUTLINE", "7"),
        ("MODULE", "8"),
        ("FLOW", "5"),
        ("CONTROL", "3"),
        ("VALVE", "1"),
        ("INLET", "2"),
    ] {
        w.text("-LAYER M ")
            .text(name)
            .text(" C ")
            .text(color)
            .text(" ")
            .text(name)
            .text("\n")
            .line()?;
    }
    let rect_cmd = |w: &mut Sink<W>, layer: &str, r: &Rect| -> io::Result<()> {
        w.text("-LAYER S ").text(layer).text("\n").line()?;
        w.text("RECTANG ")
            .mm(r.x_l())
            .text(",")
            .mm(r.y_b())
            .text(" ")
            .mm(r.x_r())
            .text(",")
            .mm(r.y_t())
            .line()
    };
    rect_cmd(&mut w, "OUTLINE", &design.chip)?;
    for m in &design.modules {
        rect_cmd(&mut w, "MODULE", &m.rect)?;
    }
    for c in &design.channels {
        let layer = layer_name(c.layer());
        w.text("-LAYER S ").text(layer).text("\n").line()?;
        for s in &c.path {
            w.text("PLINE W ")
                .mm(s.width())
                .text(" ")
                .mm(s.width())
                .text(" ")
                .mm(s.start().x)
                .text(",")
                .mm(s.start().y)
                .text(" ")
                .mm(s.end().x)
                .text(",")
                .mm(s.end().y)
                .text("\n")
                .line()?;
        }
    }
    for v in &design.valves {
        rect_cmd(&mut w, "VALVE", &v.rect)?;
    }
    w.text("-LAYER S INLET\n").line()?;
    for i in &design.inlets {
        w.text("CIRCLE ")
            .mm(i.position.x)
            .text(",")
            .mm(i.position.y)
            .text(" 0.3")
            .line()?;
    }
    w.text("ZOOM E").line()?;
    w.finish()
}

/// Writes a minimal ASCII DXF (R12 entity section) of the design.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_dxf<W: Write>(design: &Design, out: W) -> io::Result<()> {
    let mut w = Sink::new(out, 4);
    w.text("0\nSECTION\n2\nENTITIES").line()?;
    let rect = |w: &mut Sink<W>, layer: &str, r: &Rect| -> io::Result<()> {
        // closed polyline
        w.text("0\nPOLYLINE\n8\n")
            .text(layer)
            .text("\n66\n1\n70\n1")
            .line()?;
        for (x, y) in [
            (r.x_l(), r.y_b()),
            (r.x_r(), r.y_b()),
            (r.x_r(), r.y_t()),
            (r.x_l(), r.y_t()),
        ] {
            w.text("0\nVERTEX\n8\n")
                .text(layer)
                .text("\n10\n")
                .mm(x)
                .text("\n20\n")
                .mm(y)
                .line()?;
        }
        w.text("0\nSEQEND").line()
    };
    rect(&mut w, "OUTLINE", &design.chip)?;
    for m in &design.modules {
        rect(&mut w, "MODULE", &m.rect)?;
    }
    for c in &design.channels {
        let layer = layer_name(c.layer());
        for s in &c.path {
            rect(&mut w, layer, &s.to_rect())?;
        }
    }
    for v in &design.valves {
        rect(&mut w, "VALVE", &v.rect)?;
    }
    for i in &design.inlets {
        w.text("0\nCIRCLE\n8\nINLET\n10\n")
            .mm(i.position.x)
            .text("\n20\n")
            .mm(i.position.y)
            .text("\n40\n0.3")
            .line()?;
    }
    w.text("0\nENDSEC\n0\nEOF").line()?;
    w.finish()
}

/// Writes an SVG rendering: flow channels blue, control channels green,
/// valves orange, modules grey outlines, fluid inlets blue dots, pressure
/// inlets green dots — matching the colour language of the paper's figures.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_svg<W: Write>(design: &Design, out: W) -> io::Result<()> {
    let mut w = Sink::new(out, 3);
    let c = design.chip;
    // the pixel size keeps `f64` rounding: one line per file
    let pixels = format!(
        r#"" width="{:.0}" height="{:.0}">"#,
        c.width().to_mm() * 10.0,
        c.height().to_mm() * 10.0
    );
    w.text(r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 "#)
        .mm(c.width())
        .text(" ")
        .mm(c.height())
        .text(&pixels)
        .line()?;
    w.text(r#"<rect x="0" y="0" width=""#)
        .mm(c.width())
        .text(r#"" height=""#)
        .mm(c.height())
        .text(r##"" fill="#fcfcf7" stroke="#444" stroke-width="0.08"/>"##)
        .line()?;
    // y flips: SVG grows downward
    let rect = |w: &mut Sink<W>, r: &Rect, style: &str| -> io::Result<()> {
        w.text(r#"<rect x=""#)
            .mm(r.x_l() - c.x_l())
            .text(r#"" y=""#)
            .mm(c.y_t() - r.y_t())
            .text(r#"" width=""#)
            .mm(r.width())
            .text(r#"" height=""#)
            .mm(r.height())
            .text("\" ")
            .text(style)
            .text("/>")
            .line()
    };
    for m in &design.modules {
        rect(
            &mut w,
            &m.rect,
            r##"fill="none" stroke="#999" stroke-width="0.05""##,
        )?;
    }
    let seg_style = |role: ChannelRole| match role.layer() {
        Layer::Flow => r##"fill="#3b6fd4""##,
        Layer::Control => r##"fill="#2f9e44""##,
    };
    for ch in &design.channels {
        let style = seg_style(ch.role);
        for s in &ch.path {
            rect(&mut w, &s.to_rect(), style)?;
        }
    }
    for v in &design.valves {
        rect(&mut w, &v.rect, r##"fill="#e8590c" fill-opacity="0.9""##)?;
    }
    for i in &design.inlets {
        let fill = match i.kind {
            InletKind::Fluid => "#1c4fa0",
            InletKind::Pressure => "#1f7a33",
        };
        w.text(r#"<circle cx=""#)
            .mm(i.position.x - c.x_l())
            .text(r#"" cy=""#)
            .mm(c.y_t() - i.position.y)
            .text(r#"" r="0.3" fill=""#)
            .text(fill)
            .text(r#""/>"#)
            .line()?;
    }
    w.text("</svg>").line()?;
    w.finish()
}

/// Convenience: renders all three formats into strings.
///
/// # Errors
///
/// Never fails in practice (in-memory writers); returns `io::Error` for API
/// symmetry.
pub fn render_all(design: &Design) -> io::Result<(String, String, String)> {
    let mut scr = Vec::new();
    let mut dxf = Vec::new();
    let mut svg = Vec::new();
    write_scr(design, &mut scr)?;
    write_dxf(design, &mut dxf)?;
    write_svg(design, &mut svg)?;
    let decode = |v: Vec<u8>| String::from_utf8(v).expect("writers emit UTF-8");
    Ok((decode(scr), decode(dxf), decode(svg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_design::{Channel, Inlet, Valve, ValveKind};
    use columba_geom::Segment;
    use columba_geom::{Point, Side};

    fn sample() -> Design {
        let mut d = Design::new("demo", Rect::new(Um(0), Um(10_000), Um(0), Um(8_000)));
        d.modules.push(columba_design::PlacedModule {
            component: columba_netlist_component(),
            name: "m1".into(),
            rect: Rect::new(Um(1_000), Um(4_000), Um(1_000), Um(2_500)),
        });
        let ch = d.add_channel(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(1_750), Um(4_000), Um(9_000), Um(100)),
            None,
        ));
        d.add_channel(Channel::straight(
            ChannelRole::Control,
            Segment::vertical(Um(2_000), Um(0), Um(1_000), Um(100)),
            None,
        ));
        d.add_valve(Valve {
            kind: ValveKind::Isolation,
            rect: Rect::new(Um(4_500), Um(4_700), Um(1_650), Um(1_850)),
            control: None,
            blocks: Some(ch),
            owner: None,
        });
        d.add_inlet(Inlet {
            name: "in".into(),
            position: Point::new(Um(0), Um(1_750)),
            kind: InletKind::Fluid,
            side: Side::Left,
        });
        d.add_inlet(Inlet {
            name: "p".into(),
            position: Point::new(Um(2_000), Um(0)),
            kind: InletKind::Pressure,
            side: Side::Bottom,
        });
        d
    }

    fn columba_netlist_component() -> columba_netlist::ComponentId {
        columba_netlist::ComponentId(0)
    }

    #[test]
    fn scr_contains_layers_and_shapes() {
        let (scr, _, _) = render_all(&sample()).unwrap();
        for token in [
            "-LAYER M FLOW",
            "-LAYER M CONTROL",
            "RECTANG",
            "PLINE",
            "CIRCLE",
            "ZOOM E",
        ] {
            assert!(scr.contains(token), "missing {token} in:\n{scr}");
        }
        // millimetre coordinates
        assert!(scr.contains("4.0000"), "module boundary at 4mm");
    }

    #[test]
    fn dxf_is_structured() {
        let (_, dxf, _) = render_all(&sample()).unwrap();
        assert!(dxf.starts_with("0\nSECTION"));
        assert!(dxf.trim_end().ends_with("EOF"));
        assert!(
            dxf.matches("POLYLINE").count() >= 4,
            "outline + module + channels + valve"
        );
        assert_eq!(dxf.matches("CIRCLE").count(), 2);
    }

    #[test]
    fn svg_uses_paper_colours() {
        let (_, _, svg) = render_all(&sample()).unwrap();
        assert!(svg.contains("#3b6fd4"), "flow channels in blue");
        assert!(svg.contains("#2f9e44"), "control channels in green");
        assert!(svg.contains("#e8590c"), "valves in orange");
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn empty_design_renders() {
        let d = Design::new("empty", Rect::new(Um(0), Um(100), Um(0), Um(100)));
        let (scr, dxf, svg) = render_all(&d).unwrap();
        assert!(!scr.is_empty() && !dxf.is_empty() && !svg.is_empty());
    }

    fn mm_text(v: i64, decimals: usize) -> String {
        let mut buf = Vec::new();
        push_mm(&mut buf, Um(v), decimals);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn integer_mm_matches_f64_formatting() {
        // |v| up to 1e13 um: an f64 still holds v / 1000 to well within
        // half of the fourth decimal, so `{:.4}` prints the exact value
        let mut rng = columba_prng::Rng::seed_from_u64(0x5ca1e);
        let mut values = vec![0, 1, -1, 5, -5, 999, -999, 1_000, -1_000, 1_001, -1_050];
        values.extend([
            123_456_789,
            -987_654_321,
            10_000_000_000_000,
            -10_000_000_000_000,
        ]);
        for _ in 0..20_000 {
            let magnitude: i64 = [1_000, 1_000_000, 10_000_000_000_000][rng.gen_range(0..3usize)];
            values.push(rng.gen_range(-magnitude..magnitude));
        }
        for v in values {
            assert_eq!(mm_text(v, 4), format!("{:.4}", Um(v).to_mm()), "{v} um");
            assert_eq!(mm_text(v, 3), format!("{:.3}", Um(v).to_mm()), "{v} um");
            // the SVG's chip-relative coordinates were differences of mm
            let origin = Um(v / 3);
            assert_eq!(
                mm_text(v - origin.raw(), 3),
                format!("{:.3}", Um(v).to_mm() - origin.to_mm()),
                "{v} - {origin}"
            );
        }
    }

    #[test]
    fn writers_match_the_f64_writers_byte_for_byte() {
        use columba_netlist::{generators, MuxCount};
        // a chip frame off the origin makes negative and chip-relative
        // coordinates
        let mut off_origin = sample();
        off_origin.chip = Rect::new(Um(-2_345), Um(10_000), Um(-1_001), Um(8_000));
        let mut designs = vec![sample(), off_origin];
        for lanes in [4, 128] {
            let (n, _) = columba_planar::planarize(&generators::chip_ip(lanes, MuxCount::One));
            let r =
                columba_layout::synthesize(&n, &columba_layout::LayoutOptions::heuristic_only())
                    .expect("chip_ip synthesizes");
            designs.push(r.design);
        }
        for d in &designs {
            let (scr, dxf, svg) = render_all(d).unwrap();
            let render = |write: fn(&Design, &mut Vec<u8>) -> io::Result<()>| {
                let mut out = Vec::new();
                write(d, &mut out).unwrap();
                String::from_utf8(out).unwrap()
            };
            assert!(scr == render(oracle::write_scr), "{}: .scr differs", d.name);
            assert!(dxf == render(oracle::write_dxf), "{}: .dxf differs", d.name);
            assert!(svg == render(oracle::write_svg), "{}: .svg differs", d.name);
        }
    }

    #[test]
    fn large_outputs_reach_the_writer_in_chunks() {
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.push(b.len());
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut d = sample();
        let seg = d.channels[0].path[0];
        for _ in 0..2_000 {
            d.add_channel(Channel::straight(ChannelRole::FlowTransport, seg, None));
        }
        let mut out = Counting(Vec::new());
        write_svg(&d, &mut out).unwrap();
        assert!(out.0.len() > 1, "{:?}", out.0);
        assert!(out.0.iter().all(|&n| n < 2 * CHUNK), "{:?}", out.0);
    }

    /// The writers as they were with `f64` millimetre formatting: the
    /// reference the byte-equality test compares against.
    mod oracle {
        use super::*;

        fn mm(v: Um) -> f64 {
            v.to_mm()
        }

        pub(super) fn write_scr(design: &Design, out: &mut Vec<u8>) -> io::Result<()> {
            let mut w = io::BufWriter::new(out);
            writeln!(w, "; Columba S synthesis result: {}", design.name)?;
            writeln!(w, "; units: millimetres")?;
            writeln!(w, "-OSNAP OFF")?;
            for (name, color) in [
                ("OUTLINE", 7),
                ("MODULE", 8),
                ("FLOW", 5),
                ("CONTROL", 3),
                ("VALVE", 1),
                ("INLET", 2),
            ] {
                writeln!(w, "-LAYER M {name} C {color} {name}\n")?;
            }
            let rect_cmd =
                |w: &mut io::BufWriter<&mut Vec<u8>>, layer: &str, r: &Rect| -> io::Result<()> {
                    writeln!(w, "-LAYER S {layer}\n")?;
                    writeln!(
                        w,
                        "RECTANG {:.4},{:.4} {:.4},{:.4}",
                        mm(r.x_l()),
                        mm(r.y_b()),
                        mm(r.x_r()),
                        mm(r.y_t())
                    )
                };
            rect_cmd(&mut w, "OUTLINE", &design.chip)?;
            for m in &design.modules {
                rect_cmd(&mut w, "MODULE", &m.rect)?;
            }
            for c in &design.channels {
                let layer = layer_name(c.layer());
                writeln!(w, "-LAYER S {layer}\n")?;
                for s in &c.path {
                    writeln!(
                        w,
                        "PLINE W {:.4} {:.4} {:.4},{:.4} {:.4},{:.4}\n",
                        mm(s.width()),
                        mm(s.width()),
                        mm(s.start().x),
                        mm(s.start().y),
                        mm(s.end().x),
                        mm(s.end().y)
                    )?;
                }
            }
            for v in &design.valves {
                rect_cmd(&mut w, "VALVE", &v.rect)?;
            }
            writeln!(w, "-LAYER S INLET\n")?;
            for i in &design.inlets {
                writeln!(
                    w,
                    "CIRCLE {:.4},{:.4} 0.3",
                    mm(i.position.x),
                    mm(i.position.y)
                )?;
            }
            writeln!(w, "ZOOM E")?;
            w.flush()
        }

        pub(super) fn write_dxf(design: &Design, out: &mut Vec<u8>) -> io::Result<()> {
            let mut w = io::BufWriter::new(out);
            writeln!(w, "0\nSECTION\n2\nENTITIES")?;
            let rect =
                |w: &mut io::BufWriter<&mut Vec<u8>>, layer: &str, r: &Rect| -> io::Result<()> {
                    // closed polyline
                    writeln!(w, "0\nPOLYLINE\n8\n{layer}\n66\n1\n70\n1")?;
                    for (x, y) in [
                        (r.x_l(), r.y_b()),
                        (r.x_r(), r.y_b()),
                        (r.x_r(), r.y_t()),
                        (r.x_l(), r.y_t()),
                    ] {
                        writeln!(
                            w,
                            "0\nVERTEX\n8\n{layer}\n10\n{:.4}\n20\n{:.4}",
                            mm(x),
                            mm(y)
                        )?;
                    }
                    writeln!(w, "0\nSEQEND")
                };
            rect(&mut w, "OUTLINE", &design.chip)?;
            for m in &design.modules {
                rect(&mut w, "MODULE", &m.rect)?;
            }
            for c in &design.channels {
                let layer = layer_name(c.layer());
                for s in &c.path {
                    rect(&mut w, layer, &s.to_rect())?;
                }
            }
            for v in &design.valves {
                rect(&mut w, "VALVE", &v.rect)?;
            }
            for i in &design.inlets {
                writeln!(
                    w,
                    "0\nCIRCLE\n8\nINLET\n10\n{:.4}\n20\n{:.4}\n40\n0.3",
                    mm(i.position.x),
                    mm(i.position.y)
                )?;
            }
            writeln!(w, "0\nENDSEC\n0\nEOF")?;
            w.flush()
        }

        pub(super) fn write_svg(design: &Design, out: &mut Vec<u8>) -> io::Result<()> {
            let mut w = io::BufWriter::new(out);
            let c = design.chip;
            let (w_mm, h_mm) = (mm(c.width()), mm(c.height()));
            // y flips: SVG grows downward
            let flip = |y: Um| mm(c.y_t()) - mm(y);
            writeln!(
                w,
                r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w_mm:.3} {h_mm:.3}" width="{:.0}" height="{:.0}">"#,
                w_mm * 10.0,
                h_mm * 10.0
            )?;
            writeln!(
                w,
                r##"<rect x="0" y="0" width="{w_mm:.3}" height="{h_mm:.3}" fill="#fcfcf7" stroke="#444" stroke-width="0.08"/>"##
            )?;
            let rect =
                |w: &mut io::BufWriter<&mut Vec<u8>>, r: &Rect, style: &str| -> io::Result<()> {
                    writeln!(
                        w,
                        r#"<rect x="{:.3}" y="{:.3}" width="{:.3}" height="{:.3}" {style}/>"#,
                        mm(r.x_l()) - mm(c.x_l()),
                        flip(r.y_t()),
                        mm(r.width()),
                        mm(r.height())
                    )
                };
            for m in &design.modules {
                rect(
                    &mut w,
                    &m.rect,
                    r##"fill="none" stroke="#999" stroke-width="0.05""##,
                )?;
            }
            let seg_style = |role: ChannelRole| match role.layer() {
                Layer::Flow => r##"fill="#3b6fd4""##,
                Layer::Control => r##"fill="#2f9e44""##,
            };
            for ch in &design.channels {
                let style = seg_style(ch.role);
                for s in &ch.path {
                    rect(&mut w, &s.to_rect(), style)?;
                }
            }
            for v in &design.valves {
                rect(&mut w, &v.rect, r##"fill="#e8590c" fill-opacity="0.9""##)?;
            }
            for i in &design.inlets {
                let fill = match i.kind {
                    InletKind::Fluid => "#1c4fa0",
                    InletKind::Pressure => "#1f7a33",
                };
                writeln!(
                    w,
                    r#"<circle cx="{:.3}" cy="{:.3}" r="0.3" fill="{fill}"/>"#,
                    mm(i.position.x) - mm(c.x_l()),
                    flip(i.position.y)
                )?;
            }
            writeln!(w, "</svg>")?;
            w.flush()
        }
    }
}
