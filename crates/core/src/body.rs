//! Snapshot bodies spliced from the previous body.
//!
//! A tenant keeps the newest published cut's body (`tenant.rs`). The
//! next cut usually differs from it in a few users: on a long-lived
//! forum most kept users post nothing between two publishes. So beside
//! the body the tenant keeps a [`BodyIndex`] — each kept user's id and
//! the byte ranges of its profile and of its placement — and
//! [`encode`] builds the next body by copying those ranges for every
//! user whose refresh stamp is not newer than the kept body's
//! generation (see `streaming.rs`), encoding only the rest through
//! `write_json`, which divides a profile's distribution out of its hour
//! counts as it writes it. The top-level fields (`flat_removed`, crowd,
//! histogram, fits, `coverage`, `threads`) are always encoded fresh.
//!
//! Copied ranges and fresh text go straight into the new body, which is
//! shrunk to its exact size at the end: a body lives as long as its
//! epoch is the newest, and growth slack would stay resident with it.
//! The tenant passes in the allocation of the body the kept one
//! replaced: its pages are already mapped, and faulting in a fresh
//! body's pages can cost as much as encoding the changed users.
//!
//! Every body equals `serde_json::to_vec(published.report())` byte for
//! byte: the layout below is the derived `Serialize` of
//! [`GeolocationReport`](crate::GeolocationReport), and
//! `tests/writer_reference.rs` pins the two together.

use std::ops::Range;

use serde::Serialize;

use crate::concurrent::PublishedReport;

/// Where each kept user's JSON sits in a body, in report order
/// (ascending id): about 20 bytes per user plus its id.
#[derive(Debug)]
pub(crate) struct BodyIndex {
    /// Every user's id, concatenated.
    ids: String,
    /// Per user: the end of its id in `ids`, then the start and end of
    /// its profile and of its placement in the body.
    users: Vec<[u32; 5]>,
}

impl BodyIndex {
    fn len(&self) -> usize {
        self.users.len()
    }

    fn id(&self, j: usize) -> &str {
        let start = j.checked_sub(1).map_or(0, |i| self.users[i][0] as usize);
        &self.ids[start..self.users[j][0] as usize]
    }

    fn profile(&self, j: usize) -> Range<usize> {
        self.users[j][1] as usize..self.users[j][2] as usize
    }

    fn placement(&self, j: usize) -> Range<usize> {
        self.users[j][3] as usize..self.users[j][4] as usize
    }
}

/// The kept body a new one may copy from: its bytes, its index, and the
/// refresh generation of the cut it encodes.
pub(crate) struct Base<'a> {
    pub(crate) body: &'a [u8],
    pub(crate) index: &'a BodyIndex,
    pub(crate) generation: u64,
}

/// A spliced body: its bytes, its index (`None` when the body outgrew
/// `u32` offsets), and how many of its bytes were copied from the base.
pub(crate) struct Encoded {
    pub(crate) body: Vec<u8>,
    pub(crate) index: Option<BodyIndex>,
    pub(crate) copied: usize,
}

/// A body under construction: ranges copied from the base body and
/// freshly encoded text, appended in order.
struct Writer<'a> {
    base: &'a [u8],
    body: Vec<u8>,
    /// One freshly encoded element or field at a time: a whole body of
    /// fresh text would stay resident beside the old and new bodies.
    scratch: String,
    copied: usize,
}

impl Writer<'_> {
    /// Appends `range` of the base body; returns where it lands.
    fn copy(&mut self, range: Range<usize>) -> Range<usize> {
        let start = self.body.len();
        self.body.extend_from_slice(&self.base[range]);
        self.copied += self.body.len() - start;
        start..self.body.len()
    }

    /// Appends what `write` encodes; returns where it lands.
    fn write(&mut self, write: impl FnOnce(&mut String)) -> Range<usize> {
        self.scratch.clear();
        write(&mut self.scratch);
        let start = self.body.len();
        self.body.extend_from_slice(self.scratch.as_bytes());
        start..self.body.len()
    }

    fn text(&mut self, text: &str) {
        self.body.extend_from_slice(text.as_bytes());
    }

    /// Appends one array element, after a comma unless it is its array's
    /// first: `base`'s range of the base body, or what `write` encodes.
    /// Returns the element's range, comma excluded.
    fn element(
        &mut self,
        first: bool,
        base: Option<Range<usize>>,
        write: impl FnOnce(&mut String),
    ) -> Range<usize> {
        if !first {
            self.body.push(b',');
        }
        match base {
            Some(range) => self.copy(range),
            None => self.write(write),
        }
    }
}

/// `serde_json::to_vec(published.report())`, written into `buffer`'s
/// allocation, copying each kept user's profile and placement from
/// `base` when the user's stamp is not newer than the base's
/// generation. With no base every user is encoded. The caller passes a
/// base only from a generation at or before the cut's.
pub(crate) fn encode(
    published: &PublishedReport,
    base: Option<Base<'_>>,
    mut buffer: Vec<u8>,
) -> Encoded {
    let report = published.report();
    let profiles = report.profiles();
    let placements = report.placements();
    debug_assert_eq!(placements.len(), profiles.len());
    // The base-body user each report user copies, if any. Both sides
    // ascend by id; a user stamped at or before the base's generation
    // has been kept, unchanged, since that cut, so it is in the base.
    let sources: Vec<Option<usize>> = match &base {
        None => vec![None; profiles.len()],
        Some(base) => {
            let mut j = 0;
            published
                .stamps()
                .iter()
                .zip(profiles)
                .map(|(&stamp, profile)| {
                    let id = profile.user();
                    while j < base.index.len() && base.index.id(j) < id {
                        j += 1;
                    }
                    let unchanged = stamp <= base.generation;
                    (unchanged && j < base.index.len() && base.index.id(j) == id).then_some(j)
                })
                .collect()
        }
    };
    let source = |i: usize, range: fn(&BodyIndex, usize) -> Range<usize>| {
        Some(range(base.as_ref()?.index, sources[i]?))
    };
    // Room to grow past the base; shrunk to fit at the end.
    let base_body = base.as_ref().map_or(&[][..], |base| base.body);
    buffer.clear();
    buffer.reserve(base_body.len() + base_body.len() / 8);
    let mut out = Writer {
        base: base_body,
        body: buffer,
        scratch: String::new(),
        copied: 0,
    };
    let mut index = BodyIndex {
        ids: String::with_capacity(profiles.iter().map(|p| p.user().len()).sum()),
        users: Vec::with_capacity(profiles.len()),
    };
    // Offsets are stored as `u32`; a body past `u32::MAX` bytes keeps no
    // index, so its successor is encoded in full.
    out.text("{\"profiles\":[");
    for (i, profile) in profiles.iter().enumerate() {
        let range = out.element(i == 0, source(i, BodyIndex::profile), |json| {
            profile.write_json(json);
        });
        index.ids.push_str(profile.user());
        index.users.push([
            index.ids.len() as u32,
            range.start as u32,
            range.end as u32,
            0,
            0,
        ]);
    }
    out.text("],\"flat_removed\":");
    out.write(|json| report.flat_removed().write_json(json));
    out.text(",\"crowd\":");
    out.write(|json| report.crowd_profile().write_json(json));
    out.text(",\"placements\":[");
    for (i, placement) in placements.iter().enumerate() {
        let range = out.element(i == 0, source(i, BodyIndex::placement), |json| {
            placement.write_json(json);
        });
        index.users[i][3] = range.start as u32;
        index.users[i][4] = range.end as u32;
    }
    out.text("],\"histogram\":");
    out.write(|json| report.histogram().write_json(json));
    out.text(",\"single\":");
    out.write(|json| report.single_fit().write_json(json));
    out.text(",\"multi\":");
    out.write(|json| report.multi_fit().write_json(json));
    out.text(",\"coverage\":");
    out.write(|json| report.coverage().write_json(json));
    out.text(",\"threads\":");
    out.write(|json| report.threads().write_json(json));
    out.text("}");
    let mut body = out.body;
    body.shrink_to_fit();
    Encoded {
        index: u32::try_from(body.len()).is_ok().then_some(index),
        body,
        copied: out.copied,
    }
}
