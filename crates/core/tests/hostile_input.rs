//! Hostile input at a broker: broker-to-client traffic (`Deliver`,
//! `DeliverBatch`) sent *to* a broker, by a client or by a neighbour broker,
//! is counted in `broker.rejected`, journaled and dropped — never a panic.

use rebeca_broker::{BrokerRole, ClientId, Delivery, Envelope, Message};
use rebeca_core::{BrokerConfig, MobileBroker};
use rebeca_filter::{Filter, Notification};
use rebeca_sim::{Context, Incoming, Metrics, Node, NodeId, SimTime};

fn delivery(seq: u64) -> Delivery {
    Delivery {
        subscriber: ClientId::new(1),
        filter: Filter::new(),
        seq,
        envelope: Envelope::new(
            ClientId::new(2),
            seq,
            Notification::builder().attr("service", "parking").build(),
        ),
    }
}

#[test]
fn deliveries_sent_to_a_broker_are_rejected_not_a_panic() {
    let me = NodeId::new(0);
    let neighbour = NodeId::new(1);
    let client = NodeId::new(7);
    let mut broker = MobileBroker::new(
        me,
        BrokerRole::Border,
        vec![neighbour],
        BrokerConfig::default(),
    );
    let mut metrics = Metrics::new();
    let links = [neighbour, client];
    for from in [client, neighbour] {
        for message in [
            Message::Deliver(delivery(1)),
            Message::DeliverBatch(vec![delivery(2), delivery(3)]),
        ] {
            let mut ctx = Context::external(SimTime::from_millis(1), me, &links, &mut metrics);
            broker.handle(&mut ctx, Incoming::Message { from, message });
            let (outgoing, _) = ctx.into_harvest();
            assert!(outgoing.is_empty(), "a rejected message sends nothing");
        }
    }

    assert_eq!(metrics.counter("broker.rejected"), 4);
    let journal: Vec<String> = metrics
        .journal()
        .events()
        .filter(|e| e.kind == "broker.rejected")
        .map(|e| e.detail.clone())
        .collect();
    assert_eq!(
        journal,
        vec![
            format!("kind=deliver from={client}"),
            format!("kind=deliver_batch from={client}"),
            format!("kind=deliver from={neighbour}"),
            format!("kind=deliver_batch from={neighbour}"),
        ]
    );
}
