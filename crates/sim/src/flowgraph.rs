//! Fluid connectivity graph over the flow layer.

use std::collections::{HashMap, HashSet, VecDeque};

use columba_design::{ChannelId, ChannelRole, Design, InletId, InletKind};
use columba_geom::Layer;

/// Static connectivity: which flow channels touch which, and which channels
/// each fluid inlet feeds.
#[derive(Debug, Clone)]
pub(crate) struct FlowGraph {
    /// Channel ids participating in fluid transport (MUX-flow excluded).
    pub nodes: Vec<ChannelId>,
    /// Adjacency by *position in `nodes`*.
    pub adj: Vec<Vec<usize>>,
    /// Fluid inlet → node positions it feeds.
    pub inlet_taps: HashMap<InletId, Vec<usize>>,
}

impl FlowGraph {
    pub(crate) fn build(design: &Design) -> FlowGraph {
        let nodes: Vec<ChannelId> = design
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.layer() == Layer::Flow && c.role != ChannelRole::MuxFlow)
            .map(|(i, _)| ChannelId(i))
            .collect();
        let mut adj = vec![Vec::new(); nodes.len()];
        for (pi, &a) in nodes.iter().enumerate() {
            for (pj, &b) in nodes.iter().enumerate().skip(pi + 1) {
                let touch = design.channel(a).path.iter().any(|sa| {
                    design
                        .channel(b)
                        .path
                        .iter()
                        .any(|sb| sa.to_rect().touches(&sb.to_rect()))
                });
                if touch {
                    adj[pi].push(pj);
                    adj[pj].push(pi);
                }
            }
        }
        let mut inlet_taps: HashMap<InletId, Vec<usize>> = HashMap::new();
        for (ii, inlet) in design.inlets.iter().enumerate() {
            if inlet.kind != InletKind::Fluid {
                continue;
            }
            let taps: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, &id)| {
                    design.channel(id).path.iter().any(|s| {
                        s.to_rect()
                            .expanded(columba_geom::Um(1))
                            .contains_point(inlet.position)
                    })
                })
                .map(|(pos, _)| pos)
                .collect();
            inlet_taps.insert(InletId(ii), taps);
        }
        FlowGraph {
            nodes,
            adj,
            inlet_taps,
        }
    }

    /// BFS over passable channels starting from the inlet's taps.
    pub(crate) fn reachable(&self, inlet: InletId, passable: &[bool]) -> HashSet<ChannelId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        for &tap in self.inlet_taps.get(&inlet).into_iter().flatten() {
            if passable[tap] && !seen[tap] {
                seen[tap] = true;
                queue.push_back(tap);
            }
        }
        let mut out = HashSet::new();
        while let Some(v) = queue.pop_front() {
            out.insert(self.nodes[v]);
            for &w in &self.adj[v] {
                if passable[w] && !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columba_design::{Channel, Inlet};
    use columba_geom::{Point, Rect, Segment, Side, Um};

    fn design() -> Design {
        let mut d = Design::new("t", Rect::new(Um(0), Um(10_000), Um(0), Um(10_000)));
        // chain: ch0 - ch1, disconnected ch2, mux flow ignored
        d.add_channel(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(500), Um(0), Um(2_000), Um(100)),
            None,
        ));
        d.add_channel(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(500), Um(2_000), Um(4_000), Um(100)),
            None,
        ));
        d.add_channel(Channel::straight(
            ChannelRole::FlowTransport,
            Segment::horizontal(Um(5_000), Um(0), Um(2_000), Um(100)),
            None,
        ));
        d.add_channel(Channel::straight(
            ChannelRole::MuxFlow,
            Segment::horizontal(Um(500), Um(0), Um(9_000), Um(100)),
            None,
        ));
        d.add_inlet(Inlet {
            name: "in".into(),
            position: Point::new(Um(0), Um(500)),
            kind: columba_design::InletKind::Fluid,
            side: Side::Left,
        });
        d
    }

    #[test]
    fn graph_excludes_mux_flow() {
        let d = design();
        let g = FlowGraph::build(&d);
        assert_eq!(g.nodes.len(), 3);
        assert!(!g.nodes.contains(&ChannelId(3)));
    }

    #[test]
    fn reachability_follows_touching_channels() {
        let d = design();
        let g = FlowGraph::build(&d);
        let all = vec![true; g.nodes.len()];
        let r = g.reachable(InletId(0), &all);
        assert!(r.contains(&ChannelId(0)));
        assert!(r.contains(&ChannelId(1)), "touching chain is connected");
        assert!(!r.contains(&ChannelId(2)), "distant channel is not");
    }

    #[test]
    fn blocking_cuts_the_chain() {
        let d = design();
        let g = FlowGraph::build(&d);
        let mut passable = vec![true; g.nodes.len()];
        let pos = g.nodes.iter().position(|&id| id == ChannelId(1)).unwrap();
        passable[pos] = false;
        let r = g.reachable(InletId(0), &passable);
        assert!(r.contains(&ChannelId(0)));
        assert!(!r.contains(&ChannelId(1)));
    }
}
