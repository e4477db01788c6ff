//! SPICE-subset text netlist parser.
//!
//! Supports the cards needed to express every circuit in the paper:
//!
//! ```text
//! * comment lines and trailing comments ($ or ;)
//! R<name> n+ n- value
//! C<name> n+ n- value [IC=v]
//! V<name> n+ n- DC v | PULSE(v1 v2 td tr tf pw per) | PWL(t1 v1 ...) | SIN(o a f [td [df]])
//! I<name> n+ n- <same source syntax>
//! M<name> d g s b modelname W=.. L=..
//! E<name> p n cp cn gain        (VCVS)
//! G<name> p n cp cn gm          (VCCS)
//! .model <name> nmos|pmos [vt0=..] [kp=..] [lambda=..] [n=..]
//! .tran <dt> <tstop> [uic]
//! .ic v(node)=value ...
//! .end
//! + continuation lines
//! ```
//!
//! Engineering suffixes (`p`, `n`, `u`, `m`, `k`, `meg`, ...) are accepted
//! on every number. The first line of a deck is a title (SPICE tradition)
//! unless it parses as a card.

use std::collections::BTreeMap;

use crate::circuit::TranSpec;
use crate::device::MosModel;
use crate::error::{Error, Result};
use crate::netlist::Netlist;
use crate::units::parse_spice_number;
use crate::waveform::Waveform;

/// The outcome of parsing a text deck: a netlist plus any analysis
/// directives found in the file.
#[derive(Debug, Clone)]
pub struct ParsedDeck {
    /// Deck title (first line, when it is not itself a card).
    pub title: String,
    /// The parsed circuit.
    pub netlist: Netlist,
    /// `.tran` directive, if present.
    pub tran: Option<TranSpec>,
    /// `.ic` node initial conditions: `(node_name, volts)`.
    pub initial_conditions: Vec<(String, f64)>,
}

/// Parses a SPICE-subset deck.
///
/// # Errors
/// Returns [`Error::Parse`] with a 1-based line number for any malformed
/// card, unknown model reference, or bad number.
///
/// ```
/// use neurofi_spice::parse::parse_deck;
/// let deck = parse_deck(
///     "rc lowpass\n\
///      V1 in 0 DC 1\n\
///      R1 in out 1k\n\
///      C1 out 0 1n\n\
///      .tran 1n 5u uic\n\
///      .end\n",
/// )?;
/// assert_eq!(deck.title, "rc lowpass");
/// assert!(deck.tran.is_some());
/// # Ok::<(), neurofi_spice::Error>(())
/// ```
pub fn parse_deck(text: &str) -> Result<ParsedDeck> {
    // Join continuation lines first, tracking original line numbers.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.trim_start().strip_prefix('+') {
            match logical.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(rest);
                }
                None => {
                    return Err(Error::Parse {
                        line: idx + 1,
                        message: "continuation line with nothing to continue".into(),
                    })
                }
            }
        } else {
            logical.push((idx + 1, line.to_string()));
        }
    }

    let mut deck = ParsedDeck {
        title: String::new(),
        netlist: Netlist::new(),
        tran: None,
        initial_conditions: Vec::new(),
    };
    let mut models: BTreeMap<String, MosModel> = BTreeMap::new();
    // Pre-scan for .model cards so M lines can appear before their model.
    for (lineno, line) in &logical {
        let lower = line.to_ascii_lowercase();
        if lower.starts_with(".model") {
            let (name, model) = parse_model_card(line, *lineno)?;
            models.insert(name, model);
        }
    }

    let mut first = true;
    for (lineno, line) in &logical {
        let lineno = *lineno;
        let lower = line.trim().to_ascii_lowercase();
        if first {
            first = false;
            if !looks_like_card(&lower) {
                deck.title = line.trim().to_string();
                continue;
            }
        }
        if lower.starts_with(".model") || lower.starts_with(".end") {
            continue;
        }
        if lower.starts_with(".tran") {
            deck.tran = Some(parse_tran_card(line, lineno)?);
            continue;
        }
        if lower.starts_with(".ic") {
            parse_ic_card(line, lineno, &mut deck.initial_conditions)?;
            continue;
        }
        if lower.starts_with('.') {
            return Err(Error::Parse {
                line: lineno,
                message: format!("unsupported directive '{}'", first_token(line)),
            });
        }
        parse_element_card(line, lineno, &mut deck.netlist, &models)?;
    }
    Ok(deck)
}

fn strip_comment(line: &str) -> &str {
    let line = line.trim_end();
    if line.trim_start().starts_with('*') {
        return "";
    }
    let cut = line
        .find(';')
        .into_iter()
        .chain(line.find('$'))
        .min()
        .unwrap_or(line.len());
    &line[..cut]
}

fn looks_like_card(lower: &str) -> bool {
    lower.starts_with('.')
        || matches!(
            lower.chars().next(),
            Some('r' | 'c' | 'v' | 'i' | 'm' | 'e' | 'g')
        ) && lower.split_whitespace().count() >= 3
}

fn first_token(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

fn number(token: &str, lineno: usize) -> Result<f64> {
    parse_spice_number(token).ok_or_else(|| Error::Parse {
        line: lineno,
        message: format!("cannot parse number '{token}'"),
    })
}

fn parse_model_card(line: &str, lineno: usize) -> Result<(String, MosModel)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() < 3 {
        return Err(Error::Parse {
            line: lineno,
            message: ".model needs a name and a type".into(),
        });
    }
    let name = tokens[1].to_ascii_lowercase();
    let mut model = match tokens[2].to_ascii_lowercase().as_str() {
        "nmos" => MosModel::ptm65_nmos(),
        "pmos" => MosModel::ptm65_pmos(),
        other => {
            return Err(Error::Parse {
                line: lineno,
                message: format!("unknown model type '{other}' (want nmos or pmos)"),
            })
        }
    };
    for token in &tokens[3..] {
        let (key, value) = split_assignment(token, lineno)?;
        let value = number(&value, lineno)?;
        match key.as_str() {
            "vt0" | "vto" | "vth" => model.vt0 = value,
            "kp" => model.kp = value,
            "lambda" => model.lambda = value,
            "n" => model.n = value,
            other => {
                return Err(Error::Parse {
                    line: lineno,
                    message: format!("unknown model parameter '{other}'"),
                })
            }
        }
    }
    Ok((name, model))
}

fn split_assignment(token: &str, lineno: usize) -> Result<(String, String)> {
    let mut parts = token.splitn(2, '=');
    let key = parts.next().unwrap_or("").to_ascii_lowercase();
    let value = parts
        .next()
        .ok_or_else(|| Error::Parse {
            line: lineno,
            message: format!("expected key=value, got '{token}'"),
        })?
        .to_string();
    Ok((key, value))
}

fn parse_tran_card(line: &str, lineno: usize) -> Result<TranSpec> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() < 3 {
        return Err(Error::Parse {
            line: lineno,
            message: ".tran needs <dt> <tstop>".into(),
        });
    }
    let dt = number(tokens[1], lineno)?;
    let tstop = number(tokens[2], lineno)?;
    // `TranSpec::new` panics outside this range, so refuse it here.
    let valid = dt > 0.0 && dt <= tstop && tstop.is_finite();
    if !valid {
        return Err(Error::Parse {
            line: lineno,
            message: format!(
                ".tran times must be finite with 0 < dt <= tstop (dt={dt}, tstop={tstop})"
            ),
        });
    }
    let mut spec = TranSpec::new(tstop, dt);
    if tokens.iter().any(|t| t.eq_ignore_ascii_case("uic")) {
        spec = spec.with_uic();
    }
    Ok(spec)
}

fn parse_ic_card(line: &str, lineno: usize, out: &mut Vec<(String, f64)>) -> Result<()> {
    // .ic v(node)=value v(node2)=value2
    for token in line.split_whitespace().skip(1) {
        let lower = token.to_ascii_lowercase();
        let inner = lower
            .strip_prefix("v(")
            .and_then(|rest| rest.split_once(')'))
            .ok_or_else(|| Error::Parse {
                line: lineno,
                message: format!("expected v(node)=value, got '{token}'"),
            })?;
        let node = inner.0.to_string();
        let value_str = inner.1.strip_prefix('=').ok_or_else(|| Error::Parse {
            line: lineno,
            message: format!("expected '=' in '{token}'"),
        })?;
        out.push((node, number(value_str, lineno)?));
    }
    Ok(())
}

fn parse_source_waveform(tokens: &[&str], lineno: usize) -> Result<Waveform> {
    if tokens.is_empty() {
        return Err(Error::Parse {
            line: lineno,
            message: "source needs a value".into(),
        });
    }
    let joined = tokens.join(" ");
    let lower = joined.trim().to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix("dc") {
        return number(rest.trim(), lineno).map(Waveform::Dc);
    }
    if lower.starts_with("pulse") {
        let args = paren_args(&joined, lineno)?;
        if args.len() != 7 {
            return Err(Error::Parse {
                line: lineno,
                message: format!("PULSE needs 7 arguments, got {}", args.len()),
            });
        }
        return Ok(Waveform::Pulse {
            v1: args[0],
            v2: args[1],
            delay: args[2],
            rise: args[3],
            fall: args[4],
            width: args[5],
            period: args[6],
        });
    }
    if lower.starts_with("pwl") {
        let args = paren_args(&joined, lineno)?;
        if args.len() % 2 != 0 || args.is_empty() {
            return Err(Error::Parse {
                line: lineno,
                message: "PWL needs an even, non-zero number of arguments".into(),
            });
        }
        let points = args.chunks(2).map(|c| (c[0], c[1])).collect();
        return Ok(Waveform::Pwl(points));
    }
    if lower.starts_with("sin") {
        let args = paren_args(&joined, lineno)?;
        if args.len() < 3 {
            return Err(Error::Parse {
                line: lineno,
                message: "SIN needs at least 3 arguments".into(),
            });
        }
        return Ok(Waveform::Sin {
            offset: args[0],
            ampl: args[1],
            freq: args[2],
            delay: args.get(3).copied().unwrap_or(0.0),
            damping: args.get(4).copied().unwrap_or(0.0),
        });
    }
    // Bare number means DC.
    number(tokens[0], lineno).map(Waveform::Dc)
}

fn paren_args(text: &str, lineno: usize) -> Result<Vec<f64>> {
    let open = text.find('(').ok_or_else(|| Error::Parse {
        line: lineno,
        message: "expected '('".into(),
    })?;
    let close = text.rfind(')').ok_or_else(|| Error::Parse {
        line: lineno,
        message: "expected ')'".into(),
    })?;
    text[open + 1..close]
        .split([' ', ',', '\t'])
        .filter(|s| !s.is_empty())
        .map(|tok| number(tok, lineno))
        .collect()
}

fn parse_element_card(
    line: &str,
    lineno: usize,
    netlist: &mut Netlist,
    models: &BTreeMap<String, MosModel>,
) -> Result<()> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let name = tokens[0];
    let kind = name
        .chars()
        .next()
        .map(|c| c.to_ascii_lowercase())
        .unwrap_or(' ');
    let need = |n: usize| -> Result<()> {
        if tokens.len() < n {
            Err(Error::Parse {
                line: lineno,
                message: format!("'{name}' needs at least {} fields", n - 1),
            })
        } else {
            Ok(())
        }
    };
    let map_err = |e: Error| match e {
        Error::Netlist(msg) => Error::Parse {
            line: lineno,
            message: msg,
        },
        other => other,
    };
    match kind {
        'r' => {
            need(4)?;
            let (p, n) = (netlist.node(tokens[1]), netlist.node(tokens[2]));
            let value = number(tokens[3], lineno)?;
            netlist.resistor(name, p, n, value).map_err(map_err)?;
        }
        'c' => {
            need(4)?;
            let (p, n) = (netlist.node(tokens[1]), netlist.node(tokens[2]));
            let value = number(tokens[3], lineno)?;
            let mut ic = None;
            for token in &tokens[4..] {
                let (key, val) = split_assignment(token, lineno)?;
                if key == "ic" {
                    ic = Some(number(&val, lineno)?);
                } else {
                    return Err(Error::Parse {
                        line: lineno,
                        message: format!("unknown capacitor parameter '{key}'"),
                    });
                }
            }
            match ic {
                Some(v) => netlist
                    .capacitor_ic(name, p, n, value, v)
                    .map_err(map_err)?,
                None => netlist.capacitor(name, p, n, value).map_err(map_err)?,
            };
        }
        'v' | 'i' => {
            need(4)?;
            let (p, n) = (netlist.node(tokens[1]), netlist.node(tokens[2]));
            let wave = parse_source_waveform(&tokens[3..], lineno)?;
            if kind == 'v' {
                netlist.vsource(name, p, n, wave).map_err(map_err)?;
            } else {
                netlist.isource(name, p, n, wave).map_err(map_err)?;
            }
        }
        'm' => {
            need(6)?;
            let d = netlist.node(tokens[1]);
            let g = netlist.node(tokens[2]);
            let s = netlist.node(tokens[3]);
            let b = netlist.node(tokens[4]);
            let model_name = tokens[5].to_ascii_lowercase();
            let model = models
                .get(&model_name)
                .cloned()
                .ok_or_else(|| Error::Parse {
                    line: lineno,
                    message: format!("unknown model '{}'", tokens[5]),
                })?;
            let mut w = 1.0e-6;
            let mut l = 65.0e-9;
            for token in &tokens[6..] {
                let (key, val) = split_assignment(token, lineno)?;
                match key.as_str() {
                    "w" => w = number(&val, lineno)?,
                    "l" => l = number(&val, lineno)?,
                    other => {
                        return Err(Error::Parse {
                            line: lineno,
                            message: format!("unknown mosfet parameter '{other}'"),
                        })
                    }
                }
            }
            netlist
                .mosfet(name, d, g, s, b, model, w, l)
                .map_err(map_err)?;
        }
        'e' | 'g' => {
            need(6)?;
            let p = netlist.node(tokens[1]);
            let n = netlist.node(tokens[2]);
            let cp = netlist.node(tokens[3]);
            let cn = netlist.node(tokens[4]);
            let value = number(tokens[5], lineno)?;
            if kind == 'e' {
                netlist.vcvs(name, p, n, cp, cn, value).map_err(map_err)?;
            } else {
                netlist.vccs(name, p, n, cp, cn, value).map_err(map_err)?;
            }
        }
        other => {
            return Err(Error::Parse {
                line: lineno,
                message: format!("unknown element kind '{other}'"),
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Element;

    #[test]
    fn parses_rc_deck_and_runs() {
        let deck = parse_deck(
            "rc lowpass\n\
             V1 in 0 DC 1\n\
             R1 in out 1k\n\
             C1 out 0 1n\n\
             .tran 5n 5u uic\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.title, "rc lowpass");
        let spec = deck.tran.clone().unwrap();
        assert!(spec.uic);
        let res = deck.netlist.compile().unwrap().tran(&spec).unwrap();
        let out = deck.netlist.find_node("out").unwrap();
        let v = res.voltage(out);
        assert!((v.last().unwrap() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn title_line_is_optional_when_first_line_is_card() {
        let deck = parse_deck("V1 a 0 DC 1\nR1 a 0 1k\n").unwrap();
        assert_eq!(deck.title, "");
        assert_eq!(deck.netlist.elements().len(), 2);
    }

    #[test]
    fn comments_and_continuations() {
        let deck = parse_deck(
            "* full-line comment\n\
             V1 a 0 PULSE(0 1 0\n\
             + 1n 1n 10n 20n) ; trailing comment\n\
             R1 a 0 1k $ another\n",
        )
        .unwrap();
        match deck.netlist.find_element("V1").unwrap() {
            Element::VSource { wave, .. } => match wave {
                Waveform::Pulse { v2, period, .. } => {
                    assert_eq!(*v2, 1.0);
                    assert!((period - 20.0e-9).abs() < 1e-18);
                }
                other => panic!("wrong waveform {other:?}"),
            },
            _ => panic!("wrong element"),
        }
    }

    #[test]
    fn mosfet_card_with_model() {
        let deck = parse_deck(
            "test\n\
             .model mynmos nmos vt0=0.4 kp=150u lambda=0.1\n\
             VDD vdd 0 DC 1\n\
             M1 vdd vdd 0 0 mynmos W=2u L=130n\n",
        )
        .unwrap();
        match deck.netlist.find_element("M1").unwrap() {
            Element::Mosfet { model, w, l, .. } => {
                assert_eq!(model.vt0, 0.4);
                assert!((model.kp - 150.0e-6).abs() < 1e-12);
                assert!((w - 2.0e-6).abs() < 1e-15);
                assert!((l - 130.0e-9).abs() < 1e-15);
            }
            _ => panic!("wrong element"),
        }
    }

    #[test]
    fn model_can_appear_after_use() {
        let deck =
            parse_deck("t\nM1 d g 0 0 late W=1u L=65n\n.model late nmos\nVD d 0 1\nVG g 0 1\n")
                .unwrap();
        assert_eq!(deck.netlist.elements().len(), 3);
    }

    #[test]
    fn unknown_model_is_error_with_line() {
        let err = parse_deck("t\nM1 d g 0 0 nope W=1u L=1u\n").unwrap_err();
        match err {
            Error::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("nope"));
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn pwl_and_sin_sources() {
        let deck = parse_deck(
            "t\n\
             V1 a 0 PWL(0 0 1u 1 2u 0)\n\
             V2 b 0 SIN(0.5 0.5 1meg)\n\
             R1 a b 1k\n",
        )
        .unwrap();
        assert!(matches!(
            deck.netlist.find_element("V1").unwrap(),
            Element::VSource {
                wave: Waveform::Pwl(_),
                ..
            }
        ));
        match deck.netlist.find_element("V2").unwrap() {
            Element::VSource {
                wave: Waveform::Sin { freq, .. },
                ..
            } => assert_eq!(*freq, 1.0e6),
            _ => panic!("wrong element"),
        }
    }

    #[test]
    fn ic_directive() {
        let deck = parse_deck("t\nC1 x 0 1p\nR1 x 0 1k\n.ic v(x)=0.7\n").unwrap();
        assert_eq!(deck.initial_conditions, vec![("x".to_string(), 0.7)]);
    }

    #[test]
    fn capacitor_ic_parameter() {
        let deck = parse_deck("t\nC1 x 0 1p IC=0.4\nR1 x 0 1k\n").unwrap();
        match deck.netlist.find_element("C1").unwrap() {
            Element::Capacitor { ic, .. } => assert_eq!(*ic, Some(0.4)),
            _ => panic!("wrong element"),
        }
    }

    #[test]
    fn bad_number_reports_line() {
        let err = parse_deck("t\nR1 a 0 henry\n").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn unsupported_directive_rejected() {
        assert!(parse_deck("t\n.ac dec 10 1 1meg\n").is_err());
    }

    #[test]
    fn bare_number_source_is_dc() {
        let deck = parse_deck("t\nV1 a 0 1.5\nR1 a 0 1k\n").unwrap();
        match deck.netlist.find_element("V1").unwrap() {
            Element::VSource { wave, .. } => assert_eq!(*wave, Waveform::Dc(1.5)),
            _ => panic!("wrong element"),
        }
    }

    #[test]
    fn infinite_tran_times_are_parse_errors() {
        for card in [".tran 1n inf", ".tran 1n 1e999"] {
            let err = parse_deck(&format!("t\nR1 a 0 1k\n{card}\n")).unwrap_err();
            match err {
                Error::Parse { line, message } => {
                    assert_eq!(line, 3, "{card}");
                    assert!(message.contains("finite"), "{card}: {message}");
                }
                other => panic!("{card}: wrong error {other}"),
            }
        }
    }

    #[test]
    fn transients_over_the_point_cap_are_refused_before_running() {
        // Each deck parses, and without the cap `tran` would never return:
        // 1e292 PULSE cycles, 1e300 base steps, and a period too small
        // to advance edge times near t = 1 s.
        let decks = [
            (
                "t\nV1 a 0 PULSE(0 1 0 1n 1n 5n 1e-300)\nR1 a 0 1k\n.tran 1n 10n uic\n",
                "V1",
            ),
            (
                "t\nV1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1n\n.tran 1e-300 1 uic\n",
                "step",
            ),
            (
                "t\nV1 a 0 PULSE(0 1 1 1n 1n 5n 1e-17)\nR1 a 0 1k\n.tran 1m 1.0000000000001 uic\n",
                "V1",
            ),
        ];
        for (text, named) in decks {
            let deck = parse_deck(text).unwrap();
            let spec = deck.tran.clone().unwrap();
            match deck.netlist.compile().unwrap().tran(&spec) {
                Err(Error::InvalidAnalysis(message)) => {
                    assert!(message.contains(named), "{text}: {message}");
                    assert!(message.contains("cap"), "{text}: {message}");
                }
                other => panic!("{text}: expected a refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_elements_error_includes_line() {
        let err = parse_deck("t\nR1 a 0 1k\nR1 a 0 2k\n").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 3, .. }));
    }
}
