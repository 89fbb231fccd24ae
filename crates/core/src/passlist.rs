//! The pass-list of unprivileged tokens.
//!
//! Paper §4.1: "A pass-list of unprivileged tokens was created by building
//! a web-walker that string scraped the Cisco IOS command reference
//! guides. In theory, most Cisco keywords will appear somewhere in the
//! guides, and non-keywords used in the guides are so common they cannot
//! leak information."
//!
//! We cannot ship the output of a crawl over Cisco's documentation, so the
//! builtin list embeds the same two populations the crawl would find:
//! the IOS command vocabulary (keywords, protocol names, interface-type
//! names, units) and the common documentation English that surrounds them.
//! [`PassList::scrape`] reproduces the web-walker behaviour for any
//! reference corpus you *can* provide: it string-scrapes alphabetic
//! tokens exactly as the paper describes, so a deployment can regenerate
//! its pass-list from local command references.

use confanon_iosparse::{segment, Segment};

use crate::fasthash::FastSet;

/// Bytes of the stack buffer [`PassList::contains`] lowercases a
/// mixed-case word into; a longer word is lowercased into a `String`.
/// The longest builtin word (`tengigabitethernet`) has 18.
const LOWER_BUF: usize = 32;

/// IOS command vocabulary: every keyword the anonymizer should recognize
/// as structure rather than identity. Matching is case-insensitive.
const IOS_KEYWORDS: &[&str] = &[
    // Top-level and mode-opening commands.
    "aaa", "access", "address", "aggregate", "alias", "alternate", "area", "arp", "async", "atm",
    "authentication", "authorization", "auto", "autonomous", "backbone", "bandwidth", "banner",
    "bgp", "boot", "bridge", "broadcast", "buffers", "cable", "card", "cdp", "class", "classless",
    "clock", "cluster", "community", "confederation", "config", "configuration", "console",
    "controller", "cost", "crypto", "dampening", "databits", "dead", "default", "delay", "deny",
    "description", "dialer", "directed", "disable", "distance", "distribute", "domain", "dot",
    "downstream", "duplex", "eigrp", "enable", "encapsulation", "end", "exec", "exit", "export",
    "external", "fair", "fast", "flowcontrol", "format", "forward", "forwarding", "frame",
    "framing", "ftp", "full", "gateway", "group", "half", "hello", "history", "hold", "holdtime",
    "host", "hostname", "hssi", "http", "identifier", "igmp", "import", "in", "inbound",
    "input", "interface", "internal", "interval", "invalid", "ios", "ip", "ipx", "isdn", "isis",
    "keepalive", "key", "lan", "level", "line", "list", "listen", "local", "log", "logging",
    "login", "loopback", "map", "mask", "match", "maximum", "md", "media", "memory", "metric",
    "mls", "mode", "motd", "mpls", "mroute", "mtu", "multicast", "multipoint", "name", "nat",
    "neighbor", "network", "nexthop", "next", "hop", "no", "ntp", "ospf", "out", "outbound",
    "output", "parity", "passive", "password", "path", "peer", "permanent", "permit", "point",
    "policy", "pool", "preference", "prefix", "prepend", "priority", "privilege", "process",
    "protocol", "proxy", "queue", "radius", "range", "rate", "redistribute", "reference",
    "reflector", "relay", "reload", "remark", "remote", "retransmit", "rip", "route", "router",
    "routing", "rx", "scheduler", "secondary", "secret", "send", "seq", "sequence", "server",
    "service", "session", "set", "shutdown", "snmp", "source", "spanning", "speed", "split",
    "standby", "static", "stopbits", "stub", "subnet", "summary", "switch", "switchport",
    "synchronization", "table", "tacacs", "tag", "tcp", "telnet", "terminal", "tftp", "timeout",
    "timers", "to", "traffic", "translation", "transmit", "transport", "trap", "traps", "tree",
    "trunk", "tunnel", "tx", "udp", "unicast", "update", "upstream", "username", "version",
    "virtual", "vlan", "vrf", "vtp", "vty", "weight", "zone", "encryption", "zero", "changes",
    "netmask", "icmp", "traceroute", "location", "ro", "rw", "uptime", "summarization",
    "extcommunity", "rt", "soo", "client", "ipv", "unicast-routing", "link", "large",
    // Interface type names.
    "ethernet", "fastethernet", "gigabitethernet", "tengigabitethernet", "serial", "pos",
    "port", "channel", "dialer0", "null", "vlan1", "mgmt", "fddi", "tokenring",
    // Protocol/feature names that appear as arguments.
    "connected", "ibgp", "ebgp", "egp", "incomplete", "internet", "any", "all", "none", "both",
    "additive", "exact", "ge", "le", "eq", "gt", "lt", "neq", "established", "echo", "reply",
    "unreachable", "redirect", "ttl", "tos", "precedence", "dscp", "fragments",
    // Units and common argument words in references.
    "seconds", "minutes", "hours", "bytes", "packets", "bits", "kilobits", "megabits",
    "milliseconds", "percent",
];

/// Documentation English: words that appear in any command-reference
/// guide and therefore, per the paper, "are so common they cannot leak
/// information". (Note `global` and `crossing` are here on purpose: the
/// paper's own example of why comments must be stripped *despite* the
/// pass-list.)
const GUIDE_ENGLISH: &[&str] = &[
    "a", "about", "above", "accept", "active", "after", "allowed", "an", "and", "apply", "are",
    "argument", "as", "assign", "at", "attribute", "available", "be", "because", "been",
    "before", "begin", "below", "between", "bit", "but", "by", "can", "cannot", "case", "change",
    "character", "check", "command", "commands", "common", "configure", "configured", "contact",
    "contains", "control", "create", "crossing", "current", "data", "defined", "defines",
    "device", "disabled", "displays", "does", "down", "each", "either", "empty", "enabled",
    "enter", "entry", "error", "event", "example", "exceed", "existing", "false", "field",
    "file", "filter", "first", "flag", "following", "for", "from", "general", "global", "guide",
    "has", "have", "if", "ignore", "include", "information", "instance", "into", "is", "it",
    "its", "keyword", "label", "last", "length", "limit", "lines", "lower", "main", "manual",
    "may", "message", "might", "minimum", "more", "most", "must", "new", "not", "notice",
    "number", "of", "off", "old", "on", "one", "only", "option", "optional", "options", "or",
    "order", "other", "packet", "page", "parameter", "parameters", "part", "per", "point",
    "ports", "prohibited", "provides", "reachable", "read", "received", "reference", "refer",
    "related", "release", "removed", "required", "reserved", "reset", "restricted", "result",
    "running", "same", "sample", "second", "section", "see", "selected", "sent", "show",
    "single", "size", "software", "specified", "specifies", "specify", "standard", "start",
    "state", "status", "strictly", "string", "support", "supported", "system", "than", "that",
    "the", "then", "these", "this", "time", "true", "two", "type", "under", "unit", "until",
    "up", "upper", "use", "used", "user", "uses", "using", "valid", "value", "values", "when",
    "where", "which", "will", "with", "within", "word", "write", "you",
];

/// The pass-list: a case-insensitive set of unprivileged words.
#[derive(Debug, Clone)]
pub struct PassList {
    words: FastSet<String>,
}

impl PassList {
    /// The builtin list (IOS vocabulary + guide English).
    pub fn builtin() -> PassList {
        let mut words = FastSet::with_capacity_and_hasher(
            IOS_KEYWORDS.len() + GUIDE_ENGLISH.len(),
            Default::default(),
        );
        for w in IOS_KEYWORDS.iter().chain(GUIDE_ENGLISH) {
            words.insert((*w).to_ascii_lowercase());
        }
        PassList { words }
    }

    /// An empty list (useful for worst-case tests: everything hashes).
    pub fn empty() -> PassList {
        PassList {
            words: FastSet::default(),
        }
    }

    /// The web-walker behaviour: string-scrape every alphabetic segment of
    /// `reference_text` into the list. "In theory, most Cisco keywords
    /// will appear somewhere in the guides."
    pub fn scrape(&mut self, reference_text: &str) {
        for word in reference_text.split_whitespace() {
            for seg in segment(word) {
                if let Segment::Alpha(a) = seg {
                    // Single letters scrape too (flags like `A` appear in
                    // guides constantly and cannot leak).
                    self.words.insert(a.to_ascii_lowercase());
                }
            }
        }
    }

    /// Builds a list purely by scraping (no builtin seed).
    pub fn from_reference_text(reference_text: &str) -> PassList {
        let mut pl = PassList::empty();
        pl.scrape(reference_text);
        pl
    }

    /// Case-insensitive membership test. A lowercase word is looked up
    /// as it is; a mixed-case one (`Ethernet`) is lowercased into a stack
    /// buffer, and only one longer than `LOWER_BUF` (32) bytes into a
    /// `String`.
    pub fn contains(&self, word: &str) -> bool {
        if !word.bytes().any(|b| b.is_ascii_uppercase()) {
            return self.words.contains(word);
        }
        let mut buf = [0u8; LOWER_BUF];
        let Some(lower) = buf.get_mut(..word.len()) else {
            return self.words.contains(&word.to_ascii_lowercase());
        };
        lower.copy_from_slice(word.as_bytes());
        lower.make_ascii_lowercase();
        // ASCII lowercasing keeps UTF-8 valid, so this never declines.
        std::str::from_utf8(lower).is_ok_and(|w| self.words.contains(w))
    }

    /// Inserts one word (lowercased).
    pub fn insert(&mut self, word: &str) {
        self.words.insert(word.to_ascii_lowercase());
    }

    /// Number of words on the list.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_contains_core_vocabulary() {
        let pl = PassList::builtin();
        for w in [
            "interface",
            "ethernet",
            "router",
            "bgp",
            "neighbor",
            "route",
            "map",
            "permit",
            "deny",
            "community",
            "network",
            "description",
        ] {
            assert!(pl.contains(w), "{w} missing from builtin pass-list");
        }
    }

    #[test]
    fn case_insensitive() {
        let pl = PassList::builtin();
        assert!(pl.contains("Ethernet"));
        assert!(pl.contains("ETHERNET"));
        assert!(pl.contains("eThErNeT"));
    }

    #[test]
    fn identity_words_are_absent() {
        let pl = PassList::builtin();
        for w in ["uunet", "foo", "lax", "genuity", "sprintlink"] {
            assert!(!pl.contains(w), "{w} must not be on the pass-list");
        }
    }

    #[test]
    fn paper_example_global_crossing_words_are_present() {
        // §4.2: "global and crossing are both in the pass-list, but the
        // string `global crossing` in a comment must be anonymized" — the
        // defence is comment stripping, not pass-list removal.
        let pl = PassList::builtin();
        assert!(pl.contains("global"));
        assert!(pl.contains("crossing"));
    }

    #[test]
    fn scrape_mimics_web_walker() {
        let mut pl = PassList::empty();
        pl.scrape("Use the frobnicate command to enable WidgetFlow on e0/1.");
        for w in ["use", "frobnicate", "command", "widgetflow", "e"] {
            assert!(pl.contains(w), "{w}");
        }
        assert!(!pl.contains("0/1"));
    }

    #[test]
    fn insert_and_len() {
        let mut pl = PassList::empty();
        assert!(pl.is_empty());
        pl.insert("FooBar");
        assert!(pl.contains("foobar"));
        assert_eq!(pl.len(), 1);
        pl.insert("foobar");
        assert_eq!(pl.len(), 1, "case-folded duplicates collapse");
    }

    /// The lookup [`PassList::contains`] replaced: the oracle for its
    /// stack-buffer lowercasing.
    fn contains_by_string(pl: &PassList, word: &str) -> bool {
        if word.bytes().any(|b| b.is_ascii_uppercase()) {
            pl.words.contains(&word.to_ascii_lowercase())
        } else {
            pl.words.contains(word)
        }
    }

    #[test]
    fn contains_equals_the_string_lookup() {
        let mut pl = PassList::builtin();
        let long = "x".repeat(LOWER_BUF - 1) + "Yz";
        pl.insert(&long);
        pl.insert("Ärger");
        pl.insert(&"ß".repeat(LOWER_BUF));
        let mut words: Vec<String> = [
            "Ethernet",
            "GigabitEthernet",
            "TenGigabitEthernet",
            "ETHERNET",
            "eThErNeT",
            "uunet",
            "UUNET",
            "",
            "A",
            "a",
            "Ärger",
            "ärger",
            "ÄRGER",
            "Straße",
            "STRASSE",
            "Ethernet\u{0130}",
            "\u{212A}ey",
        ]
        .iter()
        .map(|w| w.to_string())
        .collect();
        words.extend([
            long.clone(),
            long.to_ascii_uppercase(),
            long[1..].to_string(),
        ]);
        words.extend([
            "x".repeat(LOWER_BUF),
            "X".repeat(LOWER_BUF),
            "X".repeat(LOWER_BUF + 1),
            "ß".repeat(LOWER_BUF),
            "ß".repeat(LOWER_BUF / 2) + "A",
        ]);
        for w in IOS_KEYWORDS.iter().chain(GUIDE_ENGLISH) {
            let upper = w.to_ascii_uppercase();
            let title = upper[..1].to_string() + &w[1..];
            words.extend([w.to_string(), upper.clone(), title, upper + "X"]);
        }
        for w in &words {
            assert_eq!(pl.contains(w), contains_by_string(&pl, w), "{w:?}");
        }
        assert!(pl.contains(&long.to_ascii_uppercase()));
        assert!(pl.contains("ÄRGER"));
    }

    #[test]
    fn builtin_is_substantial() {
        // The real crawl produced thousands of words; our embedded seed
        // must at least cover the few hundred the pipeline exercises.
        assert!(PassList::builtin().len() > 400);
    }
}
